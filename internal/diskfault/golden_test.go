package diskfault

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestGoldenFates pins the (seed, path, kind, k) → fate schedule bit for
// bit. The hashes were generated on the commit before the dice moved onto
// the shared internal/plan helpers; a mismatch means recorded seeds no
// longer replay.
func TestGoldenFates(t *testing.T) {
	golden := map[int64]uint64{
		1:       0x60664488ccd1f34d,
		7:       0x12cf7d805123e66d,
		-3:      0xf24f9a31d2051fed,
		1 << 40: 0xba9a1c0fd224e85f,
	}
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		p := Sick()
		p.Seed = seed
		h := fnv.New64a()
		var buf [32]byte
		for _, path := range []string{"node-000.wal", "/var/lib/chc/node-002.wal", "node-001.wal.snap"} {
			for k := int64(0); k < 4096; k++ {
				wf, frac := p.writeFate(path, k)
				sf, d := p.syncFate(path, k)
				binary.LittleEndian.PutUint64(buf[0:], uint64(wf))
				binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(frac))
				binary.LittleEndian.PutUint64(buf[16:], uint64(sf))
				binary.LittleEndian.PutUint64(buf[24:], uint64(d))
				_, _ = h.Write(buf[:])
			}
		}
		if want, ok := golden[seed]; !ok || h.Sum64() != want {
			t.Errorf("seed %d: schedule hash %#x, golden %#x", seed, h.Sum64(), want)
		}
	}
}
