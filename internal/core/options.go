package core

import (
	"errors"
	"fmt"

	"numarck/internal/obs"
)

// Strategy selects how the distribution of change ratios is learned and
// partitioned into 2^B - 1 groups (paper §II-C).
type Strategy int

const (
	// EqualWidth partitions the ratio range into equal-width bins and
	// approximates each member by its bin center (§II-C1).
	EqualWidth Strategy = iota
	// LogScale partitions ratios into bins whose widths grow
	// logarithmically with |ratio|, giving narrow bins to small
	// changes and wide bins to large ones (§II-C2). Negative and
	// positive ratios get disjoint bin ranges.
	LogScale
	// Clustering runs parallel k-means on the ratios, seeded from the
	// equal-width histogram, and approximates each member by its
	// cluster centroid (§II-C3).
	Clustering
	// EqualFrequency partitions the ratios into bins of equal
	// population (quantile binning) and approximates each member by
	// its bin mean. An extension beyond the paper's three strategies:
	// it is the coverage-greedy counterpoint to k-means'
	// sum-of-squares objective, at the cost of a sort. Excluded from
	// Strategies so paper-faithful sweeps keep the paper's three.
	EqualFrequency
)

// String returns the strategy name used in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case EqualWidth:
		return "equal-width"
	case LogScale:
		return "log-scale"
	case Clustering:
		return "clustering"
	case EqualFrequency:
		return "equal-frequency"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy converts a string (as accepted by the CLI tools) into a
// Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "equal-width", "equal", "ew":
		return EqualWidth, nil
	case "log-scale", "log", "ls":
		return LogScale, nil
	case "clustering", "cluster", "kmeans", "cl":
		return Clustering, nil
	case "equal-frequency", "quantile", "ef":
		return EqualFrequency, nil
	default:
		return 0, fmt.Errorf("core: unknown strategy %q (want equal-width, log-scale, or clustering)", s)
	}
}

// Strategies lists all strategies in paper order, for sweeps.
var Strategies = []Strategy{EqualWidth, LogScale, Clustering}

// Options configures an encode.
type Options struct {
	// ErrorBound is E, the user tolerance error threshold on the
	// change ratio, as a fraction (0.001 == the paper's 0.1 %).
	// Required, > 0.
	ErrorBound float64

	// IndexBits is B, the number of bits per stored index. The index
	// space holds 2^B values: index 0 is reserved for "within
	// tolerance of zero change" and indices 1..2^B-1 name the learned
	// groups. Required, in [1, 24].
	IndexBits int

	// Strategy selects the approximation strategy. Default EqualWidth.
	Strategy Strategy

	// Workers bounds the goroutines of an encode. Encode and
	// EncodeWithTable run their ratio and assign stages on up to
	// Workers goroutines (0 means GOMAXPROCS); the streaming encoder
	// (internal/chunk) runs those on its Config.Workers. Table learning
	// runs its range scans on Workers goroutines on both paths, and at
	// 0 on the run's own: GOMAXPROCS for Encode, Config.Workers for the
	// streaming encoder. No encoded byte depends on it.
	Workers int

	// KMeansMaxIter bounds Lloyd iterations for the Clustering
	// strategy. Defaults to 12: the histogram seeding already places
	// centroids on the mass, and long Lloyd runs drift them toward the
	// sum-of-squares optimum, which over-serves sparse wide tails at
	// the expense of error-bound coverage.
	KMeansMaxIter int

	// UniformSeeding switches the Clustering strategy to evenly spaced
	// initial centroids instead of the paper's histogram seeding.
	// Exists for the seeding ablation; leave false for paper behaviour.
	UniformSeeding bool

	// DisableZeroIndex turns off the reserved "unchanged" index 0, so
	// every ratio must be represented by a learned group (an ablation;
	// the paper always reserves index 0). With it set, the index space
	// still reserves 0 but small ratios go through the binning path.
	DisableZeroIndex bool

	// Obs, when non-nil, receives per-stage timings and counters from
	// every pipeline the options flow through: core Encode/Decode, the
	// streaming chunk pipeline, and the checkpoint writers. Nil (the
	// default) keeps every instrumentation site a single-branch no-op.
	// It rides in Options so one recorder follows the encode through
	// all layers without widening any signatures; it is never
	// serialized.
	Obs *obs.Recorder
}

// ErrBadOptions reports an invalid Options value.
var ErrBadOptions = errors.New("core: invalid options")

// MaxIndexBits is the largest supported B. 2^24 bins is already far past
// anything useful; the cap keeps table allocations sane.
const MaxIndexBits = 24

// Validate checks opt and fills defaults, returning the normalized copy.
func (opt Options) Validate() (Options, error) {
	if !(opt.ErrorBound > 0) { // also rejects NaN
		return opt, fmt.Errorf("%w: ErrorBound must be > 0, got %v", ErrBadOptions, opt.ErrorBound)
	}
	if opt.ErrorBound >= 1 {
		return opt, fmt.Errorf("%w: ErrorBound %v is a fraction and must be < 1 (0.001 means 0.1%%)", ErrBadOptions, opt.ErrorBound)
	}
	if opt.IndexBits < 1 || opt.IndexBits > MaxIndexBits {
		return opt, fmt.Errorf("%w: IndexBits must be in [1,%d], got %d", ErrBadOptions, MaxIndexBits, opt.IndexBits)
	}
	switch opt.Strategy {
	case EqualWidth, LogScale, Clustering, EqualFrequency:
	default:
		return opt, fmt.Errorf("%w: unknown strategy %d", ErrBadOptions, int(opt.Strategy))
	}
	if opt.Workers <= 0 {
		opt.Workers = 0 // resolved at use sites to GOMAXPROCS
	}
	if opt.KMeansMaxIter <= 0 {
		opt.KMeansMaxIter = 12
	}
	return opt, nil
}

// NumBins returns 2^B - 1, the number of learned groups.
func (opt Options) NumBins() int {
	return (1 << uint(opt.IndexBits)) - 1
}
