package spmd

import (
	"fmt"
	"sort"

	"spcg/internal/sparse"
)

// LocalMatrix is one rank's share of a block-row distributed CSR matrix:
// the owned rows with column indices remapped into a compact local+ghost
// index space, plus the send/receive lists of the halo-exchange protocol.
type LocalMatrix struct {
	Rank, P int
	Lo, Hi  int // owned global rows [Lo, Hi)

	rowPtr []int
	colIdx []int // remapped: [0,NLocal) owned, [NLocal, NLocal+NGhost) ghosts
	val    []float64

	ghostGlobal []int // global index of each ghost slot (sorted)

	// neighbors[i] is a peer rank; sendIdx[i] lists the LOCAL indices whose
	// values we pack for that peer; recvSlot[i] lists the ghost slots we
	// scatter its payload into. Packing order is the sorted global index
	// order on both sides, so sender and receiver agree without metadata.
	neighbors []int
	sendIdx   [][]int
	recvSlot  [][]int

	xExt    []float64 // scratch: owned values followed by ghost values
	sendBuf [][]float64
}

// NLocal returns the number of owned rows.
func (lm *LocalMatrix) NLocal() int { return lm.Hi - lm.Lo }

// Distribute splits a into p block-row local matrices (nnz-balanced, the
// same partition dist.NewCluster models) and builds the halo protocol.
func Distribute(a *sparse.CSR, p int) ([]*LocalMatrix, error) {
	if p < 1 || p > a.Dim() {
		return nil, fmt.Errorf("spmd: cannot distribute %d rows over %d ranks", a.Dim(), p)
	}
	bounds := sparse.NNZBalancedRanges(a, p)
	owner := func(row int) int {
		r := sort.Search(len(bounds), func(i int) bool { return bounds[i] > row }) - 1
		if r < 0 {
			r = 0
		}
		if r >= p {
			r = p - 1
		}
		return r
	}

	locals := make([]*LocalMatrix, p)
	// ghostsOf[r] = sorted distinct global ghost indices of rank r.
	ghostsOf := make([][]int, p)
	for r := 0; r < p; r++ {
		lo, hi := bounds[r], bounds[r+1]
		seen := map[int]struct{}{}
		for i := lo; i < hi; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				j := a.ColIdx[k]
				if j < lo || j >= hi {
					seen[j] = struct{}{}
				}
			}
		}
		ghosts := make([]int, 0, len(seen))
		for j := range seen {
			ghosts = append(ghosts, j)
		}
		sort.Ints(ghosts)
		ghostsOf[r] = ghosts
	}

	for r := 0; r < p; r++ {
		lo, hi := bounds[r], bounds[r+1]
		lm := &LocalMatrix{Rank: r, P: p, Lo: lo, Hi: hi, ghostGlobal: ghostsOf[r]}
		nLocal := hi - lo
		ghostSlot := make(map[int]int, len(lm.ghostGlobal))
		for slot, g := range lm.ghostGlobal {
			ghostSlot[g] = nLocal + slot
		}
		// Remap the owned rows.
		lm.rowPtr = make([]int, nLocal+1)
		for i := lo; i < hi; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				j := a.ColIdx[k]
				var c int
				if j >= lo && j < hi {
					c = j - lo
				} else {
					c = ghostSlot[j]
				}
				lm.colIdx = append(lm.colIdx, c)
				lm.val = append(lm.val, a.Val[k])
			}
			lm.rowPtr[i-lo+1] = len(lm.val)
		}
		// Receive protocol: group ghosts by owner (ghosts are globally
		// sorted, so per-owner order is sorted too).
		recvBy := map[int][]int{}
		for slot, g := range lm.ghostGlobal {
			recvBy[owner(g)] = append(recvBy[owner(g)], nLocal+slot)
		}
		var peers []int
		for peer := range recvBy {
			peers = append(peers, peer)
		}
		sort.Ints(peers)
		for _, peer := range peers {
			lm.neighbors = append(lm.neighbors, peer)
			lm.recvSlot = append(lm.recvSlot, recvBy[peer])
		}
		lm.xExt = make([]float64, nLocal+len(lm.ghostGlobal))
		locals[r] = lm
	}

	// Send protocol: rank q must send to r exactly the values r receives
	// from q, in the same (global-index-sorted) order.
	for r := 0; r < p; r++ {
		lm := locals[r]
		lm.sendIdx = make([][]int, len(lm.neighbors))
		lm.sendBuf = make([][]float64, len(lm.neighbors))
		for i, peer := range lm.neighbors {
			// Globals that `peer` needs from r (sorted subset of peer's ghosts).
			var idx []int
			for _, g := range ghostsOf[peer] {
				if g >= lm.Lo && g < lm.Hi {
					idx = append(idx, g-lm.Lo)
				}
			}
			lm.sendIdx[i] = idx
			lm.sendBuf[i] = make([]float64, len(idx))
		}
	}
	// Validate symmetry of the protocol (structurally symmetric matrices
	// always satisfy it; reject pathological inputs instead of deadlocking).
	for r := 0; r < p; r++ {
		lm := locals[r]
		for i, peer := range lm.neighbors {
			if len(lm.sendIdx[i]) == 0 {
				return nil, fmt.Errorf("spmd: rank %d receives from %d but has nothing to send back; matrix is structurally unsymmetric", r, peer)
			}
		}
	}
	return locals, nil
}

// Exchange performs the halo exchange for the owned vector x (length NLocal)
// and returns the extended vector [x | ghosts] usable by MulVecLocal. The
// returned slice is rank-local scratch, valid until the next Exchange.
func (lm *LocalMatrix) Exchange(rk *Rank, x []float64) []float64 {
	if len(x) != lm.NLocal() {
		panic(fmt.Sprintf("spmd: Exchange expects %d owned values, got %d", lm.NLocal(), len(x)))
	}
	copy(lm.xExt, x)
	for i, peer := range lm.neighbors {
		buf := lm.sendBuf[i]
		for k, idx := range lm.sendIdx[i] {
			buf[k] = x[idx]
		}
		rk.Send(peer, buf)
	}
	for i, peer := range lm.neighbors {
		payload := rk.Recv(peer)
		slots := lm.recvSlot[i]
		if len(payload) != len(slots) {
			panic(fmt.Sprintf("spmd: rank %d got %d values from %d, expected %d", lm.Rank, len(payload), peer, len(slots)))
		}
		for k, slot := range slots {
			lm.xExt[slot] = payload[k]
		}
	}
	// The sense-reversing round structure (each pair exchanges exactly one
	// message, buffered channels of depth 1) needs a barrier so a fast rank
	// cannot start the next round's sends before this round's receives.
	rk.Barrier()
	return lm.xExt
}

// MulVecLocal computes the owned rows of A·x given the extended vector from
// Exchange, writing the NLocal results into dst.
func (lm *LocalMatrix) MulVecLocal(dst, xExt []float64) {
	n := lm.NLocal()
	if len(dst) != n {
		panic("spmd: MulVecLocal dst length mismatch")
	}
	for i := 0; i < n; i++ {
		var s float64
		for k := lm.rowPtr[i]; k < lm.rowPtr[i+1]; k++ {
			s += lm.val[k] * xExt[lm.colIdx[k]]
		}
		dst[i] = s
	}
}

// SpMV is Exchange followed by MulVecLocal.
func (lm *LocalMatrix) SpMV(rk *Rank, dst, x []float64) {
	xExt := lm.Exchange(rk, x)
	lm.MulVecLocal(dst, xExt)
}
