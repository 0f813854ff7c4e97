// Package adaptive decides dynamically when to write full (lossless)
// checkpoints instead of NUMARCK deltas, the paper's §V extension:
// "adaptation of these techniques can help enable ... determining
// dynamic checkpointing frequency based on how evolving distributions
// change".
//
// A fixed full-checkpoint period wastes space when the simulation is
// quiet and pays for deltas that save nothing when it is turbulent. The
// checkpoint Writer instead encodes each iteration tentatively as a
// delta and asks the Scheduler, which inspects what the compressor
// already produced:
//
//   - a delta whose incompressible ratio γ is too high stores most
//     points raw anyway, so a full checkpoint is cheaper and resets
//     the chain for free;
//   - a hard cap bounds chain length so restart cost stays bounded.
//
// Restart error is not an input: the Writer encodes closed-loop, so a
// restart is within E·|x̂_{i-1}| of the truth at any chain depth and
// there is no accumulated error for a schedule to ration.
//
// The Scheduler keeps no chain state of its own. The Writer owns each
// variable's chain depth, advances it only once an iteration is wholly
// committed, and re-derives it from the store on resume.
package adaptive

import "numarck/internal/core"

// Config tunes the scheduler.
type Config struct {
	// GammaThreshold forces a full checkpoint when a tentative delta's
	// incompressible ratio meets or exceeds it. Default 0.5.
	GammaThreshold float64
	// MaxChain caps consecutive deltas between fulls. Default 64.
	MaxChain int
}

func (c Config) withDefaults() Config {
	if c.GammaThreshold <= 0 {
		c.GammaThreshold = 0.5
	}
	if c.MaxChain <= 0 {
		c.MaxChain = 64
	}
	return c
}

// Reason explains a decision.
type Reason string

const (
	// ReasonGamma means the delta barely compresses.
	ReasonGamma Reason = "incompressible ratio too high"
	// ReasonChain means the chain-length cap was reached.
	ReasonChain Reason = "max chain length"
	// ReasonDelta means no full checkpoint was needed.
	ReasonDelta Reason = "delta"
)

// Decision is the scheduler's verdict for one tentative delta.
type Decision struct {
	Full   bool
	Reason Reason
}

// Scheduler is the full-or-delta rule for one Config. It is stateless
// and safe for concurrent use.
type Scheduler struct {
	cfg Config
}

// NewScheduler creates a scheduler.
func NewScheduler(cfg Config) *Scheduler {
	return &Scheduler{cfg: cfg.withDefaults()}
}

// Decide returns whether a tentative delta with incompressible ratio
// gamma, which would be delta number depth+1 of its chain, should be
// replaced by a full checkpoint. A variable's first checkpoint is not a
// decision: with nothing to encode a delta against, the Writer writes
// it in full without asking.
func (s *Scheduler) Decide(depth int, gamma float64) Decision {
	switch {
	case gamma >= s.cfg.GammaThreshold:
		return Decision{Full: true, Reason: ReasonGamma}
	case depth >= s.cfg.MaxChain:
		return Decision{Full: true, Reason: ReasonChain}
	}
	return Decision{Reason: ReasonDelta}
}

// Full is Decide in the shape of the checkpoint Writer's schedule seam.
func (s *Scheduler) Full(depth int, enc *core.Encoded) bool {
	return s.Decide(depth, enc.Gamma()).Full
}
