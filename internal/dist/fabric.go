// Package dist implements rank-parallel NUMARCK encoding in the style
// of the paper's MPI deployment: the data of one checkpoint is
// partitioned across ranks, each rank computes its change ratios
// locally, and the distribution of changes is learned either per rank
// (zero communication, R bin tables) or globally (one shared table,
// whose reductions are the only inter-rank traffic).
//
// A global table is core's own fit, reduced: each rank summarises its
// table input with core.ScanFitStats and one min- and one
// sum-reduction merge the summaries exactly. Equal-width and log-scale
// ranks then encode against the binner core builds from the merged
// stats, so their shards are core.Encode's bytes at every rank count.
// Clustering seeds from the merged range and runs an MPI-style
// parallel k-means: kmeans' one Lloyd loop on every rank, with one
// partial-sum reduction per iteration (two when a sum overflows).
//
// The paper's exascale motivation is minimizing data movement ("more
// computations locally for learning patterns of change", §I), so the
// fabric meters every byte a rank sends; the local-vs-global table
// trade-off is an ablation the experiments harness reports.
//
// Ranks are goroutines and the fabric is built on shared-memory
// synchronization — the in-process equivalent of MPI processes with
// the same communication pattern and the classic recursive-doubling
// cost model for accounting. Collectives fold in rank order, so every
// result is the same bits whatever the scheduling.
package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Op is a reduction operator for AllReduce.
type Op int

const (
	// OpSum adds element-wise.
	OpSum Op = iota
	// OpMin takes the element-wise minimum.
	OpMin
	// OpMax takes the element-wise maximum.
	OpMax
)

func (o Op) apply(dst, src []float64) {
	switch o {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	}
}

// Fabric is a byte-metered collective-communication layer for a fixed
// set of ranks.
type Fabric struct {
	ranks     int
	bytesSent atomic.Int64

	mu      sync.Mutex
	cond    *sync.Cond
	genNum  int
	arrived int
	vecs    [][]float64 // vecs[r] is rank r's contribution to the open collective
	ops     []Op
	out     []float64 // the last finished collective's result
	failed  error     // and its error
}

// NewFabric creates a fabric for the given number of ranks (>= 1).
func NewFabric(ranks int) (*Fabric, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("dist: need >= 1 rank, got %d", ranks)
	}
	f := &Fabric{ranks: ranks, vecs: make([][]float64, ranks), ops: make([]Op, ranks)}
	f.cond = sync.NewCond(&f.mu)
	return f, nil
}

// Ranks returns the number of ranks.
func (f *Fabric) Ranks() int { return f.ranks }

// BytesSent returns the total bytes ranks have sent through collectives
// so far. A single-rank fabric moves no bytes.
func (f *Fabric) BytesSent() int64 { return f.bytesSent.Load() }

// AllReduce combines vec element-wise across all ranks with op and
// returns the result to every caller. Every rank must call with the
// same vector length and operator; the call blocks until all ranks
// contribute. The last rank to arrive folds the contributions in rank
// order, so the result's bits do not depend on the order the ranks
// arrive in. The byte meter charges each rank ceil(log2 R) vector
// sends, the recursive-doubling cost.
func (f *Fabric) AllReduce(rank int, vec []float64, op Op) ([]float64, error) {
	if rank < 0 || rank >= f.ranks {
		return nil, fmt.Errorf("dist: rank %d out of range [0,%d)", rank, f.ranks)
	}
	if f.ranks == 1 {
		return append([]float64(nil), vec...), nil
	}

	f.mu.Lock()
	defer f.mu.Unlock()

	// vec stays unread by its caller, blocked here, until the fold.
	f.vecs[rank], f.ops[rank] = vec, op
	f.arrived++
	gen := f.genNum
	if f.arrived == f.ranks {
		f.out, f.failed = f.fold()
		f.arrived = 0
		f.genNum++
		f.cond.Broadcast()
	} else {
		for gen == f.genNum {
			f.cond.Wait()
		}
	}
	if f.failed != nil {
		return nil, f.failed
	}
	f.bytesSent.Add(int64(8 * len(vec) * log2ceil(f.ranks)))
	return append([]float64(nil), f.out...), nil
}

// fold reduces the open collective's contributions in rank order and
// releases them. A rank whose length or operator differs from rank 0's
// fails the collective for every rank, instead of deadlocking it.
func (f *Fabric) fold() ([]float64, error) {
	defer clear(f.vecs)
	acc := append([]float64(nil), f.vecs[0]...)
	for r, v := range f.vecs[1:] {
		if len(v) != len(acc) || f.ops[r+1] != f.ops[0] {
			return nil, fmt.Errorf("dist: rank %d joined collective with len %d/op %d, rank 0 used len %d/op %d",
				r+1, len(v), f.ops[r+1], len(acc), f.ops[0])
		}
		f.ops[0].apply(acc, v)
	}
	return acc, nil
}

func log2ceil(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		return 1
	}
	return b
}
