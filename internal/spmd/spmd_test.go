package spmd

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"spcg/internal/sparse"
)

func TestWorldBarrierAndAllreduce(t *testing.T) {
	w := NewWorld(5)
	var counter int64
	w.Run(func(r *Rank) {
		atomic.AddInt64(&counter, 1)
		r.Barrier()
		// After the barrier every rank must observe all increments.
		if atomic.LoadInt64(&counter) != 5 {
			t.Errorf("rank %d saw counter %d before allreduce", r.ID, counter)
		}
		sum := r.Allreduce([]float64{float64(r.ID + 1), 1})
		if sum[0] != 15 || sum[1] != 5 {
			t.Errorf("rank %d allreduce = %v", r.ID, sum)
		}
		// Repeated reductions must not interfere.
		sum2 := r.Allreduce([]float64{2})
		if sum2[0] != 10 {
			t.Errorf("rank %d second allreduce = %v", r.ID, sum2)
		}
	})
}

func TestWorldSendRecv(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(r *Rank) {
		next := (r.ID + 1) % 4
		prev := (r.ID + 3) % 4
		r.Send(next, []float64{float64(r.ID)})
		got := r.Recv(prev)
		if got[0] != float64(prev) {
			t.Errorf("rank %d got %v from %d", r.ID, got, prev)
		}
	})
}

func TestDistributeRoundTripSpMV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
		p    int
	}{
		{"poisson1d p=3", sparse.Poisson1D(50), 3},
		{"poisson2d p=4", sparse.Poisson2D(13, 11), 4},
		{"poisson3d p=7", sparse.Poisson3D(6, 5, 4), 7},
		{"varcoeff p=5", sparse.VarCoeff2D(12, 12, 2, 3), 5},
		{"p=1", sparse.Poisson2D(8, 8), 1},
	} {
		a, p := tc.a, tc.p
		x := make([]float64, a.Dim())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, a.Dim())
		a.MulVec(want, x)

		locals, err := Distribute(a, p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := make([]float64, a.Dim())
		w := NewWorld(p)
		w.Run(func(rk *Rank) {
			lm := locals[rk.ID]
			dst := make([]float64, lm.NLocal())
			lm.SpMV(rk, dst, x[lm.Lo:lm.Hi])
			copy(got[lm.Lo:lm.Hi], dst)
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: distributed SpMV differs at row %d: %v vs %v", tc.name, i, got[i], want[i])
			}
		}
	}
}

func TestDistributeRepeatedExchanges(t *testing.T) {
	// Multiple rounds through the same protocol (as in a solver loop) must
	// stay consistent — this exercises mailbox reuse and the round barrier.
	a := sparse.Poisson2D(10, 10)
	p := 4
	locals, err := Distribute(a, p)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Dim())
	for i := range x {
		x[i] = float64(i)
	}
	// want = A³·x computed sequentially.
	want := append([]float64(nil), x...)
	tmp := make([]float64, a.Dim())
	for k := 0; k < 3; k++ {
		a.MulVec(tmp, want)
		want, tmp = tmp, want
	}
	got := make([]float64, a.Dim())
	w := NewWorld(p)
	w.Run(func(rk *Rank) {
		lm := locals[rk.ID]
		cur := append([]float64(nil), x[lm.Lo:lm.Hi]...)
		dst := make([]float64, lm.NLocal())
		for k := 0; k < 3; k++ {
			lm.SpMV(rk, dst, cur)
			copy(cur, dst)
		}
		copy(got[lm.Lo:lm.Hi], cur)
	})
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("A³x differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestDistributeValidation(t *testing.T) {
	a := sparse.Poisson1D(5)
	if _, err := Distribute(a, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := Distribute(a, 10); err == nil {
		t.Fatal("p > rows accepted")
	}
}
