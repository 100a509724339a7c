package runtime

import (
	"chc/internal/dist"
	"chc/internal/rlink"
	"chc/internal/wal"
)

// Test hooks for the external runtime_test package, which exercises the
// cluster against full consensus processes (package core) and therefore
// cannot live in-package: core runs on the unified engine, which drives this
// runtime.

// ReplayNodeForTest exposes replayNode: rebuild node i from its WAL.
func (c *Cluster) ReplayNodeForTest(i int) (dist.Process, *wal.Replayed, error) {
	proc, _, rep, err := c.replayNode(i)
	return proc, rep, err
}

// RecoveryDirForTest exposes the configured WAL directory.
func (c *Cluster) RecoveryDirForTest() string { return c.cfg.WALDir }

// NewRecordedChannelCluster is NewChannelCluster's reliable-link path with
// every node's frame sender passed through wrap first, so a test can observe
// (and judge) each frame at the moment it leaves its node; the reliable-link
// layer always runs.
func NewRecordedChannelCluster(procs []dist.Process, wrap func(i int, s rlink.Sender) rlink.Sender, cfg Config) (*Cluster, error) {
	c, err := newCluster(procs, cfg, TransportChannel)
	if err != nil {
		return nil, err
	}
	for i := range procs {
		if err := c.install(i, procs[i], wrap(i, &chanFrameSender{cluster: c})); err != nil {
			c.abort()
			return nil, err
		}
	}
	return c, nil
}
