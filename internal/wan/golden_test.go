package wan

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"chc/internal/dist"
)

// TestGoldenDelays pins the (seed, from, to, seq) → dice and delay schedule
// bit for bit. The hashes were generated on the commit before the dice moved
// onto the shared internal/plan helpers; a mismatch means recorded seeds no
// longer replay.
func TestGoldenDelays(t *testing.T) {
	golden := map[int64]uint64{
		1:       0x3ccce985768e0d6,
		7:       0x77e9772913714c53,
		-3:      0xaba1024256eaa3ba,
		1 << 40: 0xc9173162a8bf0146,
	}
	plan, err := ParsePlan("us-eu-ap,tail=0.05,bw=64mb")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		m, err := NewModel(plan, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [24]byte
		for from := dist.ProcID(0); from < 6; from++ {
			for to := dist.ProcID(0); to < 6; to++ {
				for seq := int64(0); seq < 256; seq++ {
					u, v := m.dice(from, to, seq)
					binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(u))
					binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(v))
					binary.LittleEndian.PutUint64(buf[16:], uint64(m.Delay(from, to, seq)))
					_, _ = h.Write(buf[:])
				}
			}
		}
		if want, ok := golden[seed]; !ok || h.Sum64() != want {
			t.Errorf("seed %d: schedule hash %#x, golden %#x", seed, h.Sum64(), want)
		}
	}
}
