package netfault

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// TestGoldenFates pins the (seed, link, k) → fate schedule bit for bit. The
// hashes were generated on the commit before the dice moved onto the shared
// internal/plan helpers; a mismatch means recorded seeds no longer replay.
func TestGoldenFates(t *testing.T) {
	golden := map[int64]uint64{
		1:       0xd85f3f59b73d1d13,
		7:       0xee96d397aa89350b,
		-3:      0xef888617a156ead9,
		1 << 40: 0x8dd85af5229ddb3f,
	}
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		p := Hostile()
		p.Seed = seed
		h := fnv.New64a()
		var buf [24]byte
		for _, link := range []string{"0->1", "2->0", "tcp:4->3"} {
			for k := int64(0); k < 4096; k++ {
				f, raw := p.fate(link, k)
				binary.LittleEndian.PutUint64(buf[0:], uint64(f))
				binary.LittleEndian.PutUint64(buf[8:], raw)
				binary.LittleEndian.PutUint64(buf[16:], uint64(p.stall(raw)))
				_, _ = h.Write(buf[:])
			}
		}
		if want, ok := golden[seed]; !ok || h.Sum64() != want {
			t.Errorf("seed %d: schedule hash %#x, golden %#x", seed, h.Sum64(), want)
		}
	}
}
