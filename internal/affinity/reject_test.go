package affinity

import (
	"math"
	"testing"
)

// lattice is the spacing of the values rng.Float64 returns: k·2⁻⁵³ for
// k ∈ [0, 2⁵³).
const lattice = 0x1p-53

// latticeAround returns the Float64 lattice points within two steps of v,
// clamped to [0, 1).
func latticeAround(v float64) []float64 {
	k := math.Floor(math.Max(0, math.Min(v, 1)) / lattice)
	var us []float64
	for d := -2.0; d <= 2; d++ {
		if j := k + d; j >= 0 && j < 1/lattice {
			us = append(us, j*lattice)
		}
	}
	return us
}

// rejectAnchors are the values near which reject's answer can flip or
// change path: the exact threshold e^x, both bracket bounds, and both bounds
// widened by rejectMargin.
func rejectAnchors(x float64) []float64 {
	lo, hi := 1+x, 1+x+x*x/2
	return []float64{math.Exp(x), lo, hi, lo - rejectMargin, hi + rejectMargin}
}

func checkReject(t *testing.T, u, x float64) {
	t.Helper()
	if got, want := reject(u, x), u >= math.Exp(x); got != want {
		t.Fatalf("reject(%v, %v) = %v, want %v (math.Exp = %v)", u, x, got, want, math.Exp(x))
	}
}

// TestRejectMatchesExp checks the bracket against math.Exp on a grid of x
// from −20 to −2⁻⁴⁰, with u at the Float64 lattice points either side of
// e^x, 1+x and 1+x+x²/2 (and of each bound widened by the margin), plus an
// even spread over [0, 1).
func TestRejectMatchesExp(t *testing.T) {
	var xs []float64
	for x := -20.0; x < 0; x += 1.0 / 64 {
		xs = append(xs, x)
	}
	for e := -40; e <= 4; e++ {
		for _, f := range []float64{1, 1.25, 1.5, 1.75} {
			if x := -f * math.Ldexp(1, e); x >= -20 {
				xs = append(xs, x)
			}
		}
	}
	for _, x := range xs {
		for _, a := range rejectAnchors(x) {
			for _, u := range latticeAround(a) {
				checkReject(t, u, x)
			}
		}
		for k := 0; k < 64; k++ {
			checkReject(t, float64(k)/64, x)
		}
		checkReject(t, 1-lattice, x)
	}
}

// FuzzRejectMatchesExp checks the bracket against math.Exp for x and u taken
// from the fuzz input. u is a Float64 lattice point, either drawn directly or
// placed a few lattice steps from one of the anchors of x.
func FuzzRejectMatchesExp(f *testing.F) {
	f.Add(-0.01, uint64(0), uint8(0), int8(0))
	f.Add(-0.5, uint64(1)<<62, uint8(1), int8(-1))
	f.Add(-1e-9, uint64(0), uint8(2), int8(1))
	f.Add(-3.0, uint64(0), uint8(3), int8(0))
	f.Add(-19.5, uint64(0), uint8(5), int8(2))
	f.Fuzz(func(t *testing.T, x float64, bits uint64, anchor uint8, step int8) {
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
			return
		}
		x = -math.Abs(x)
		u := float64(bits>>11) * lattice
		if anchors := rejectAnchors(x); int(anchor) < len(anchors) {
			a := math.Max(0, math.Min(anchors[anchor], 1))
			k := math.Floor(a/lattice) + float64(step)
			if k < 0 || k >= 1/lattice {
				return
			}
			u = k * lattice
		}
		checkReject(t, u, x)
	})
}
