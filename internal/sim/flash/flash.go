// Package flash implements a block-structured compressible-Euler
// hydrodynamics simulator that stands in for the FLASH code (Fryxell et
// al. 2000) used by the NUMARCK paper to generate checkpoint data.
//
// Like FLASH, the problem domain is divided into blocks of 16×16
// interior cells with 4 guard cells on each side that hold neighbor
// data, and checkpoints carry the 10 variables the paper lists:
// dens, eint, ener, gamc, game, pres, temp, velx, vely, velz. The
// solver is a 2-D finite-volume scheme (HLL fluxes, gamma-law EOS,
// CFL-limited explicit time stepping) with a passively advected
// z-momentum so velz is a live, nonzero field. Adaptive mesh refinement
// is not modeled: NUMARCK sees only the flat per-variable value arrays
// of a checkpoint, and a uniform block mesh produces those with the
// same temporal smoothness properties (see DESIGN.md, substitutions).
//
// Block updates run in parallel across workers, each taking a fixed
// share of the blocks, mirroring FLASH's per-process block distribution.
package flash

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"numarck/internal/panics"
)

// Mesh geometry constants, matching the paper's setup (§III-A: 16×16
// blocks, 4 guard cells per side).
const (
	// NXB and NYB are the interior cells per block in x and y.
	NXB = 16
	NYB = 16
	// NGuard is the guard-cell depth on each side.
	NGuard = 4

	totW = NXB + 2*NGuard // padded block width
	totH = NYB + 2*NGuard // padded block height
)

// Gamma is the ratio of specific heats of the gamma-law EOS.
const Gamma = 1.4

// RGas is the specific gas constant used to derive temperature
// (temp = pres / (dens · RGas)); its exact value only scales temp.
const RGas = 8.314e2

// Variables lists the 10 checkpoint variables in FLASH's checkpoint
// order (§III-A).
var Variables = []string{
	"dens", "eint", "ener", "gamc", "game", "pres", "temp", "velx", "vely", "velz",
}

// conserved state indices inside a block.
const (
	qRho  = 0 // density
	qMx   = 1 // x momentum density
	qMy   = 2 // y momentum density
	qMz   = 3 // z momentum density (passively advected)
	qEner = 4 // total energy density
	nQ    = 5
)

// block is one mesh block: nQ conserved fields over the padded cell
// array, row-major with x fastest.
type block struct {
	q [nQ][]float64
}

func newBlock() *block {
	b := &block{}
	for v := range b.q {
		b.q[v] = make([]float64, totW*totH)
	}
	return b
}

func cellIdx(ix, iy int) int { return iy*totW + ix }

// Config describes a simulation setup.
type Config struct {
	// BlocksX, BlocksY is the block grid; the paper runs ~80 blocks
	// per process, so the default 9×9 = 81.
	BlocksX, BlocksY int
	// CFL is the Courant number (default 0.4).
	CFL float64
	// Workers bounds update parallelism (default GOMAXPROCS).
	Workers int
	// Seed perturbs the initial condition so distinct runs differ.
	Seed int64
	// SecondOrder enables MUSCL reconstruction with a minmod limiter
	// (second-order in space). The default first-order Godunov update
	// is more diffusive; second order keeps shocks sharper, closer to
	// what a production AMR code produces.
	SecondOrder bool
}

func (c Config) withDefaults() Config {
	if c.BlocksX <= 0 {
		c.BlocksX = 9
	}
	if c.BlocksY <= 0 {
		c.BlocksY = 9
	}
	if c.CFL <= 0 || c.CFL >= 1 {
		c.CFL = 0.4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Sim is a running simulation.
type Sim struct {
	cfg    Config
	blocks []*block // row-major block grid
	nbx    int
	nby    int
	dx, dy float64
	time   float64
	step   int
}

// ErrConfig reports an invalid configuration.
var ErrConfig = errors.New("flash: invalid config")

// New creates a simulation with a Sedov-like central pressure pulse
// plus a smooth seeded perturbation field.
func New(cfg Config) (*Sim, error) {
	cfg = cfg.withDefaults()
	if cfg.BlocksX > 1024 || cfg.BlocksY > 1024 {
		return nil, fmt.Errorf("%w: block grid %dx%d too large", ErrConfig, cfg.BlocksX, cfg.BlocksY)
	}
	s := &Sim{
		cfg: cfg,
		nbx: cfg.BlocksX,
		nby: cfg.BlocksY,
		dx:  1.0 / float64(cfg.BlocksX*NXB),
		dy:  1.0 / float64(cfg.BlocksY*NYB),
	}
	s.blocks = make([]*block, s.nbx*s.nby)
	for i := range s.blocks {
		s.blocks[i] = newBlock()
	}
	s.initBlast()
	s.exchangeGuards()
	return s, nil
}

// initBlast sets a smooth high-pressure Gaussian pulse at the domain
// center on a quiescent background, with seed-dependent long-wavelength
// perturbations in density and a gentle swirl in vz so every checkpoint
// variable is a live field.
func (s *Sim) initBlast() {
	seedPhase := float64(s.cfg.Seed%997) * 0.013
	for by := 0; by < s.nby; by++ {
		for bx := 0; bx < s.nbx; bx++ {
			b := s.blocks[by*s.nbx+bx]
			for iy := 0; iy < totH; iy++ {
				for ix := 0; ix < totW; ix++ {
					x := (float64(bx*NXB+ix-NGuard) + 0.5) * s.dx
					y := (float64(by*NYB+iy-NGuard) + 0.5) * s.dy
					r2 := (x-0.5)*(x-0.5) + (y-0.5)*(y-0.5)

					rho := 1.0 + 0.05*math.Sin(2*math.Pi*x+seedPhase)*math.Cos(2*math.Pi*y-seedPhase)
					p := 0.1 + 1.6*math.Exp(-r2/0.008)
					// Background wind keeps the velocity fields well
					// away from zero, as in the paper's blast runs;
					// near-zero values would make relative change
					// ratios degenerate for every compressor.
					u := 1.20 + 0.10*math.Sin(2*math.Pi*y+seedPhase)
					v := 1.10 + 0.10*math.Cos(2*math.Pi*x-seedPhase)
					w := 1.00 + 0.10*math.Sin(2*math.Pi*x)*math.Sin(2*math.Pi*y+seedPhase)

					idx := cellIdx(ix, iy)
					b.q[qRho][idx] = rho
					b.q[qMx][idx] = rho * u
					b.q[qMy][idx] = rho * v
					b.q[qMz][idx] = rho * w
					b.q[qEner][idx] = p/(Gamma-1) + 0.5*rho*(u*u+v*v+w*w)
				}
			}
		}
	}
}

// Time returns the current simulation time.
func (s *Sim) Time() float64 { return s.time }

// StepCount returns the number of completed steps.
func (s *Sim) StepCount() int { return s.step }

// Cells returns the number of interior cells in the whole domain.
func (s *Sim) Cells() int { return s.nbx * s.nby * NXB * NYB }

// Blocks returns the number of mesh blocks.
func (s *Sim) Blocks() int { return len(s.blocks) }

// Step advances the simulation by one CFL-limited time step and returns
// the dt used.
func (s *Sim) Step() float64 {
	dt := s.cfg.CFL * s.stableDt()
	s.advance(dt)
	s.exchangeGuards()
	s.time += dt
	s.step++
	return dt
}

// StepN advances n steps.
func (s *Sim) StepN(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// stableDt returns the largest stable time step over the whole mesh.
func (s *Sim) stableDt() float64 {
	results := make([]float64, len(s.blocks))
	s.parallelBlocks(func(bi int) {
		b := s.blocks[bi]
		minDt := math.Inf(1)
		for iy := NGuard; iy < NGuard+NYB; iy++ {
			for ix := NGuard; ix < NGuard+NXB; ix++ {
				idx := cellIdx(ix, iy)
				rho := b.q[qRho][idx]
				u := b.q[qMx][idx] / rho
				v := b.q[qMy][idx] / rho
				w := b.q[qMz][idx] / rho
				p := (Gamma - 1) * (b.q[qEner][idx] - 0.5*rho*(u*u+v*v+w*w))
				if p < 1e-12 {
					p = 1e-12
				}
				c := math.Sqrt(Gamma * p / rho)
				dtx := s.dx / (math.Abs(u) + c)
				dty := s.dy / (math.Abs(v) + c)
				if dtx < minDt {
					minDt = dtx
				}
				if dty < minDt {
					minDt = dty
				}
			}
		}
		results[bi] = minDt
	})
	minDt := math.Inf(1)
	for _, dt := range results {
		if dt < minDt {
			minDt = dt
		}
	}
	return minDt
}

// advance applies one first-order Godunov (HLL) update to every block.
func (s *Sim) advance(dt float64) {
	next := make([]*block, len(s.blocks))
	s.parallelBlocks(func(bi int) {
		next[bi] = s.updateBlock(s.blocks[bi], dt)
	})
	s.blocks = next
}

// updateBlock computes the HLL flux update of one block, writing a new
// block so neighbors still see the old state (time-unsplit update).
// With SecondOrder, interface states are MUSCL-reconstructed with a
// minmod limiter; otherwise they are the piecewise-constant cell
// values (first-order Godunov).
func (s *Sim) updateBlock(b *block, dt float64) *block {
	nb := newBlock()
	for v := 0; v < nQ; v++ {
		copy(nb.q[v], b.q[v])
	}
	lamX := dt / s.dx
	lamY := dt / s.dy
	second := s.cfg.SecondOrder

	var fL, fR [nQ]float64
	for iy := NGuard; iy < NGuard+NYB; iy++ {
		for ix := NGuard; ix < NGuard+NXB; ix++ {
			idx := cellIdx(ix, iy)
			s.interfaceFlux(b, cellIdx(ix-1, iy), idx, 0, second, &fL)
			s.interfaceFlux(b, idx, cellIdx(ix+1, iy), 0, second, &fR)
			for v := 0; v < nQ; v++ {
				nb.q[v][idx] -= lamX * (fR[v] - fL[v])
			}
			s.interfaceFlux(b, cellIdx(ix, iy-1), idx, 1, second, &fL)
			s.interfaceFlux(b, idx, cellIdx(ix, iy+1), 1, second, &fR)
			for v := 0; v < nQ; v++ {
				nb.q[v][idx] -= lamY * (fR[v] - fL[v])
			}
		}
	}
	return nb
}

// interfaceFlux computes the HLL flux at the interface between cells l
// and r along dir, with optional MUSCL reconstruction of the interface
// states from the neighboring cells.
func (s *Sim) interfaceFlux(b *block, l, r int, dir int, second bool, out *[nQ]float64) {
	var uL, uR [nQ]float64
	if !second {
		for v := 0; v < nQ; v++ {
			uL[v] = b.q[v][l]
			uR[v] = b.q[v][r]
		}
		hllFluxStates(&uL, &uR, dir, out)
		return
	}
	// Neighbors one cell beyond each side of the interface, along dir.
	stride := 1
	if dir == 1 {
		stride = totW
	}
	ll := l - stride
	rr := r + stride
	for v := 0; v < nQ; v++ {
		qv := b.q[v]
		uL[v] = qv[l] + 0.5*minmod(qv[l]-qv[ll], qv[r]-qv[l])
		uR[v] = qv[r] - 0.5*minmod(qv[r]-qv[l], qv[rr]-qv[r])
	}
	// Reconstruction can produce unphysical interface states near
	// strong gradients; fall back to first order there.
	if uL[qRho] <= 0 || uR[qRho] <= 0 {
		for v := 0; v < nQ; v++ {
			uL[v] = b.q[v][l]
			uR[v] = b.q[v][r]
		}
	}
	hllFluxStates(&uL, &uR, dir, out)
}

// minmod is the classic symmetric slope limiter.
func minmod(a, b float64) float64 {
	switch {
	case a > 0 && b > 0:
		return math.Min(a, b)
	case a < 0 && b < 0:
		return math.Max(a, b)
	default:
		return 0
	}
}

// hllFluxStates computes the HLL numerical flux between two states
// along direction dir (0 = x, 1 = y) into out.
func hllFluxStates(uL, uR *[nQ]float64, dir int, out *[nQ]float64) {
	var fL, fR [nQ]float64
	vnL, cL := physFlux(uL, dir, &fL)
	vnR, cR := physFlux(uR, dir, &fR)

	sL := math.Min(vnL-cL, vnR-cR)
	sR := math.Max(vnL+cL, vnR+cR)
	switch {
	case sL >= 0:
		*out = fL
	case sR <= 0:
		*out = fR
	default:
		inv := 1 / (sR - sL)
		for v := 0; v < nQ; v++ {
			out[v] = (sR*fL[v] - sL*fR[v] + sL*sR*(uR[v]-uL[v])) * inv
		}
	}
}

// physFlux computes the physical Euler flux of state u along dir and
// returns the normal velocity and sound speed.
func physFlux(u *[nQ]float64, dir int, f *[nQ]float64) (vn, c float64) {
	rho := u[qRho]
	if rho < 1e-12 {
		rho = 1e-12
	}
	ux := u[qMx] / rho
	uy := u[qMy] / rho
	uz := u[qMz] / rho
	p := (Gamma - 1) * (u[qEner] - 0.5*rho*(ux*ux+uy*uy+uz*uz))
	if p < 1e-12 {
		p = 1e-12
	}
	if dir == 0 {
		vn = ux
	} else {
		vn = uy
	}
	c = math.Sqrt(Gamma * p / rho)

	f[qRho] = rho * vn
	f[qMx] = u[qMx] * vn
	f[qMy] = u[qMy] * vn
	f[qMz] = u[qMz] * vn
	f[qEner] = (u[qEner] + p) * vn
	if dir == 0 {
		f[qMx] += p
	} else {
		f[qMy] += p
	}
	return vn, c
}

// exchangeGuards fills every block's guard cells from its neighbors'
// interiors, with outflow (copy) conditions at the domain boundary.
func (s *Sim) exchangeGuards() {
	s.parallelBlocks(func(bi int) {
		by, bx := bi/s.nbx, bi%s.nbx
		b := s.blocks[bi]
		for iy := 0; iy < totH; iy++ {
			for ix := 0; ix < totW; ix++ {
				if ix >= NGuard && ix < NGuard+NXB && iy >= NGuard && iy < NGuard+NYB {
					continue // interior
				}
				// Global interior-cell coordinates of this guard cell.
				gx := bx*NXB + ix - NGuard
				gy := by*NYB + iy - NGuard
				// Clamp to the domain (outflow boundary).
				if gx < 0 {
					gx = 0
				}
				if gx >= s.nbx*NXB {
					gx = s.nbx*NXB - 1
				}
				if gy < 0 {
					gy = 0
				}
				if gy >= s.nby*NYB {
					gy = s.nby*NYB - 1
				}
				src := s.blocks[(gy/NYB)*s.nbx+gx/NXB]
				sidx := cellIdx(gx%NXB+NGuard, gy%NYB+NGuard)
				didx := cellIdx(ix, iy)
				for v := 0; v < nQ; v++ {
					b.q[v][didx] = src.q[v][sidx]
				}
			}
		}
	})
}

// parallelBlocks runs fn(blockIndex) for every block on the configured
// workers, worker w taking every Workers-th block from w: blocks are
// equal work and fn writes only its own block's cells. A panic in fn is
// raised again on the caller's goroutine as a *panics.Error.
func (s *Sim) parallelBlocks(fn func(int)) {
	workers := min(s.cfg.Workers, len(s.blocks))
	err := panics.Each(workers, func(w int) error {
		for i := w; i < len(s.blocks); i += workers {
			fn(i)
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
}

// Snapshot is one checkpoint: the 10 FLASH variables over all interior
// cells, flattened block by block (matching how FLASH writes its
// checkpoint file with collective calls per variable).
type Snapshot struct {
	Step int
	Time float64
	// Vars maps variable name to its flat value array.
	Vars map[string][]float64
}

// Checkpoint captures the current state as a Snapshot.
func (s *Sim) Checkpoint() *Snapshot {
	n := s.Cells()
	snap := &Snapshot{Step: s.step, Time: s.time, Vars: make(map[string][]float64, len(Variables))}
	for _, v := range Variables {
		snap.Vars[v] = make([]float64, n)
	}
	pos := 0
	for bi := range s.blocks {
		b := s.blocks[bi]
		for iy := NGuard; iy < NGuard+NYB; iy++ {
			for ix := NGuard; ix < NGuard+NXB; ix++ {
				idx := cellIdx(ix, iy)
				rho := b.q[qRho][idx]
				u := b.q[qMx][idx] / rho
				v := b.q[qMy][idx] / rho
				w := b.q[qMz][idx] / rho
				etot := b.q[qEner][idx] / rho // specific total energy
				eint := etot - 0.5*(u*u+v*v+w*w)
				p := (Gamma - 1) * rho * eint

				snap.Vars["dens"][pos] = rho
				snap.Vars["eint"][pos] = eint
				snap.Vars["ener"][pos] = etot
				snap.Vars["gamc"][pos] = Gamma
				snap.Vars["game"][pos] = Gamma
				snap.Vars["pres"][pos] = p
				snap.Vars["temp"][pos] = p / (rho * RGas)
				snap.Vars["velx"][pos] = u
				snap.Vars["vely"][pos] = v
				snap.Vars["velz"][pos] = w
				pos++
			}
		}
	}
	return snap
}

// Restart overwrites the simulation state from a snapshot (which may
// contain approximated values reconstructed from NUMARCK checkpoints,
// §III-G). The snapshot must describe the same mesh.
func (s *Sim) Restart(snap *Snapshot) error {
	n := s.Cells()
	for _, v := range []string{"dens", "velx", "vely", "velz", "pres"} {
		arr, ok := snap.Vars[v]
		if !ok {
			return fmt.Errorf("flash: restart snapshot missing variable %q", v)
		}
		if len(arr) != n {
			return fmt.Errorf("flash: restart variable %q has %d cells, mesh has %d", v, len(arr), n)
		}
	}
	pos := 0
	for bi := range s.blocks {
		b := s.blocks[bi]
		for iy := NGuard; iy < NGuard+NYB; iy++ {
			for ix := NGuard; ix < NGuard+NXB; ix++ {
				idx := cellIdx(ix, iy)
				rho := snap.Vars["dens"][pos]
				u := snap.Vars["velx"][pos]
				v := snap.Vars["vely"][pos]
				w := snap.Vars["velz"][pos]
				p := snap.Vars["pres"][pos]
				if rho <= 0 || math.IsNaN(rho) {
					return fmt.Errorf("flash: restart density %v at cell %d", rho, pos)
				}
				if p <= 0 || math.IsNaN(p) {
					return fmt.Errorf("flash: restart pressure %v at cell %d", p, pos)
				}
				b.q[qRho][idx] = rho
				b.q[qMx][idx] = rho * u
				b.q[qMy][idx] = rho * v
				b.q[qMz][idx] = rho * w
				b.q[qEner][idx] = p/(Gamma-1) + 0.5*rho*(u*u+v*v+w*w)
				pos++
			}
		}
	}
	s.step = snap.Step
	s.time = snap.Time
	s.exchangeGuards()
	return nil
}
