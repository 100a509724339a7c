package hull

import (
	"math"

	"chc/internal/geom"
)

// Volume returns the d-dimensional volume (length / area / volume / ...) of
// the convex hull of verts. Lower-dimensional hulls have volume 0. In d >= 3
// it is the sum of the simplices spanned by the centroid of verts and the
// simplicial facets beneathBeyond builds.
func Volume(verts []geom.Point, eps float64) (float64, error) {
	if len(verts) == 0 {
		return 0, ErrEmpty
	}
	// Recentre at the centroid: volume is translation-invariant, and a
	// tiny polytope far from the origin would otherwise lose all
	// significant digits.
	c, err := geom.Centroid(verts)
	if err != nil {
		return 0, err
	}
	centered := make([]geom.Point, len(verts))
	for i, v := range verts {
		centered[i] = v.Sub(c)
	}
	d := c.Dim()
	if d >= 3 {
		h, err := hullND(centered, eps)
		if err != nil || h.facets == nil {
			return 0, err
		}
		var ds geom.DetScratch
		m := geom.NewMatrix(d, d)
		var vol float64
		for k := 0; k < len(h.simplices); k += d {
			for r, i := range h.simplices[k : k+d] {
				copy(m.Row(r), centered[i])
			}
			det, _ := ds.Det(m, minPivot) // m is square
			vol += math.Abs(det)
		}
		for k := 2; k <= d; k++ {
			vol /= float64(k)
		}
		return vol, nil
	}
	if dim, err := geom.AffineDim(verts, eps); err != nil || dim < d {
		return 0, err
	}
	if d == 1 {
		lo, hi, err := geom.BoundingBox(centered)
		if err != nil {
			return 0, err
		}
		return hi[0] - lo[0], nil
	}
	return math.Abs(PolygonArea(MonotoneChain(centered, eps))), nil
}

// Diameter returns the maximum pairwise distance between verts.
func Diameter(verts []geom.Point) float64 {
	var best float64
	for i := range verts {
		for j := i + 1; j < len(verts); j++ {
			if d := geom.Dist(verts[i], verts[j]); d > best {
				best = d
			}
		}
	}
	return best
}
