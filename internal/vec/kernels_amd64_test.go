package vec

import (
	"math"
	"math/rand"
	"testing"
)

// The AVX2 micro-kernels must be bitwise identical to the Go kernels: these
// tests call both sets directly and compare with ==.

func needAVX2(t *testing.T) {
	t.Helper()
	if !cpuHasAVX2() {
		t.Skip("CPU lacks AVX2")
	}
}

// wideVec returns n normal draws scaled over 2⁻¹²…2¹², so that any change in
// the order of a sum shows in its last bits.
func wideVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(25)-12)
	}
	return v
}

// wideBlock returns an n×s block whose columns start at row offset off of
// their backing arrays, so the kernels see odd-aligned column slices.
func wideBlock(rng *rand.Rand, n, s, off int) *Block {
	b := &Block{N: n, Cols: make([][]float64, s)}
	for j := range b.Cols {
		b.Cols[j] = wideVec(rng, n+off)[off:]
	}
	return b
}

func sameBits(a, b []float64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func TestDotAVX2MatchesGo(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(21))
	for n := 0; n <= 67; n++ {
		for _, off := range []int{0, 1, 3} {
			a := wideVec(rng, n+off)[off:]
			b := wideVec(rng, n+off+1)[off+1:]
			if g, w := dotAVX2(a, b), dotGo(a, b); g != w {
				t.Fatalf("n=%d off=%d: AVX2 dot %v != Go dot %v", n, off, g, w)
			}
		}
	}
	a, b := wideVec(rng, 100_003), wideVec(rng, 100_003)
	if g, w := dotAVX2(a, b), dotGo(a, b); g != w {
		t.Fatalf("n=100003: AVX2 dot %v != Go dot %v", g, w)
	}
}

// TestGramTileAVX2MatchesGo covers every column count remainder mod 3 (rows
// of X) and mod 4 (columns of Y), tile spans with every length mod 4 that
// start at odd rows, and an accumulator that already holds values.
func TestGramTileAVX2MatchesGo(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(22))
	for sa := 1; sa <= 7; sa++ {
		for sb := 1; sb <= 9; sb++ {
			x := wideBlock(rng, 61, sa, 1)
			y := wideBlock(rng, 61, sb, 2)
			for _, span := range [][2]int{{0, 61}, {1, 2}, {3, 6}, {1, 8}, {5, 14}, {7, 42}, {0, 60}, {13, 61}} {
				lo, hi := span[0], span[1]
				init := wideVec(rng, sa*sb)
				want := append([]float64(nil), init...)
				got := append([]float64(nil), init...)
				gramTileGo(want, x.Cols, y.Cols, lo, hi)
				gramTileAVX2(got, x.Cols, y.Cols, lo, hi)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("sa=%d sb=%d rows [%d,%d): entry %d AVX2 %v != Go %v", sa, sb, lo, hi, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCombineAVX2MatchesGo covers groups of one to four columns with no
// source, a separate source and d itself as the source, for every span
// length mod 4 at odd row offsets.
func TestCombineAVX2MatchesGo(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(23))
	for k := 1; k <= 4; k++ {
		for n := 0; n <= 41; n++ {
			off := 1 + n%3
			x := wideBlock(rng, n+off, k, 0)
			c := wideVec(rng, k)
			start := wideVec(rng, n+1)[1:]
			base := wideVec(rng, n)
			for _, src := range []string{"none", "base", "d"} {
				want := append([]float64(nil), start...)
				got := append([]float64(nil), start...)
				var sw, sg []float64
				switch src {
				case "base":
					sw, sg = base, base
				case "d":
					sw, sg = want, got
				}
				combineGo(want, sw, x.Cols, c, off)
				combineAVX2(got, sg, x.Cols, c, off)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("k=%d n=%d src=%s: row %d AVX2 %v != Go %v", k, n, src, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCombineSpanAVX2MatchesGo runs every combineSpan variant (accumulate,
// base, and the no-base first groups of one and two columns) for column
// counts with every remainder mod 4, over spans at odd row offsets.
func TestCombineSpanAVX2MatchesGo(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(24))
	const rows = 83
	for s := 0; s <= 11; s++ {
		x := wideBlock(rng, rows, s, 0)
		coef := wideVec(rng, s)
		for _, span := range [][2]int{{0, rows}, {1, 6}, {3, 42}, {5, 83}} {
			off, n := span[0], span[1]-span[0]
			base := wideVec(rng, n)
			start := wideVec(rng, n)
			for _, v := range []struct {
				name       string
				base       []float64
				accumulate bool
			}{{"accumulate", nil, true}, {"base", base, false}, {"first group", nil, false}} {
				want := append([]float64(nil), start...)
				got := append([]float64(nil), start...)
				combineSpan(goKernels, want, x.Cols, coef, off, v.base, v.accumulate)
				combineSpan(avx2Kernels, got, x.Cols, coef, off, v.base, v.accumulate)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("%s s=%d span %v: row %d AVX2 %v != Go %v", v.name, s, span, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPooledKernelsAVX2MatchGo checks the pooled entries at pool sizes 1, 2
// and 5, where the part boundaries fall at arbitrary rows. The Gram compares
// the two kernel sets through the same pooled reduction; the combines run on
// the active (AVX2) set and are compared with serial Go-kernel sweeps, since
// their per-row arithmetic does not depend on the partition.
func TestPooledKernelsAVX2MatchGo(t *testing.T) {
	needAVX2(t)
	if active != avx2Kernels {
		t.Fatal("AVX2 CPU but the active kernel set is", active.name)
	}
	rng := rand.New(rand.NewSource(25))
	const n = 20_011
	for _, w := range []int{1, 2, 5} {
		prev := SetMaxWorkers(w)
		for _, shape := range [][2]int{{6, 7}, {10, 11}, {5, 1}} {
			sa, sb := shape[0], shape[1]
			x, y := wideBlock(rng, n, sa, 1), wideBlock(rng, n, sb, 0)
			if i := sameBits(gramFused(avx2Kernels, x, y), gramFused(goKernels, x, y)); i >= 0 {
				t.Fatalf("workers=%d %d×%d GramFused: entry %d differs", w, sa, sb, i)
			}

			c := wideVec(rng, sa*sb)
			ct := transposeCoef(c, sa, sb)
			dst := NewBlock(n, sb)
			AddMulFused(dst, y, x, c)
			mul := NewBlock(n, sb)
			MulFused(mul, x, c)
			for j := 0; j < sb; j++ {
				want := make([]float64, n)
				combineSpan(goKernels, want, x.Cols, ct[j*sa:(j+1)*sa], 0, y.Cols[j], false)
				if i := sameBits(dst.Cols[j], want); i >= 0 {
					t.Fatalf("workers=%d AddMulFused column %d: row %d differs", w, j, i)
				}
				combineSpan(goKernels, want, x.Cols, ct[j*sa:(j+1)*sa], 0, nil, false)
				if i := sameBits(mul.Cols[j], want); i >= 0 {
					t.Fatalf("workers=%d MulFused column %d: row %d differs", w, j, i)
				}
			}

			cv := wideVec(rng, sa)
			got := wideVec(rng, n)
			want := append([]float64(nil), got...)
			x.AddScaledFused(got, 1, cv)
			combineSpan(goKernels, want, x.Cols, cv, 0, nil, true)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("workers=%d AddScaledFused: row %d differs", w, i)
			}
		}
		SetMaxWorkers(prev)
	}
}
