package flash

import (
	"math"
	"testing"

	"numarck/internal/panics"
)

func newSmall(t *testing.T) *Sim {
	t.Helper()
	s, err := New(Config{BlocksX: 3, BlocksY: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewDefaults(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Blocks() != 81 {
		t.Errorf("default blocks = %d, want 81 (~80 as in the paper)", s.Blocks())
	}
	if s.Cells() != 81*256 {
		t.Errorf("cells = %d", s.Cells())
	}
}

func TestNewRejectsHugeGrid(t *testing.T) {
	if _, err := New(Config{BlocksX: 5000, BlocksY: 1}); err == nil {
		t.Error("huge grid accepted")
	}
}

func TestCheckpointVariablesComplete(t *testing.T) {
	s := newSmall(t)
	snap := s.Checkpoint()
	if len(snap.Vars) != 10 {
		t.Fatalf("%d variables", len(snap.Vars))
	}
	for _, v := range Variables {
		arr, ok := snap.Vars[v]
		if !ok {
			t.Fatalf("missing variable %q", v)
		}
		if len(arr) != s.Cells() {
			t.Fatalf("variable %q has %d cells, want %d", v, len(arr), s.Cells())
		}
		for i, x := range arr {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("variable %q cell %d = %v", v, i, x)
			}
		}
	}
}

func TestPhysicalInvariants(t *testing.T) {
	s := newSmall(t)
	s.StepN(20)
	snap := s.Checkpoint()
	for i := 0; i < s.Cells(); i++ {
		if snap.Vars["dens"][i] <= 0 {
			t.Fatalf("non-positive density at %d: %v", i, snap.Vars["dens"][i])
		}
		if snap.Vars["pres"][i] <= 0 {
			t.Fatalf("non-positive pressure at %d: %v", i, snap.Vars["pres"][i])
		}
		if snap.Vars["eint"][i] <= 0 {
			t.Fatalf("non-positive internal energy at %d", i)
		}
		// ener = eint + kinetic.
		kin := 0.5 * (snap.Vars["velx"][i]*snap.Vars["velx"][i] +
			snap.Vars["vely"][i]*snap.Vars["vely"][i] +
			snap.Vars["velz"][i]*snap.Vars["velz"][i])
		if math.Abs(snap.Vars["ener"][i]-(snap.Vars["eint"][i]+kin)) > 1e-9*snap.Vars["ener"][i] {
			t.Fatalf("energy identity broken at %d", i)
		}
		if snap.Vars["gamc"][i] != Gamma || snap.Vars["game"][i] != Gamma {
			t.Fatalf("gamma fields wrong at %d", i)
		}
	}
}

func TestPresTempProportional(t *testing.T) {
	// The paper notes pres and temp behave identically because the
	// same computation produces both; here temp = pres/(dens·R).
	s := newSmall(t)
	s.StepN(10)
	snap := s.Checkpoint()
	for i := 0; i < s.Cells(); i++ {
		want := snap.Vars["pres"][i] / (snap.Vars["dens"][i] * RGas)
		if math.Abs(snap.Vars["temp"][i]-want) > 1e-12*math.Abs(want) {
			t.Fatalf("temp relation broken at %d", i)
		}
	}
}

func TestVelzIsLiveField(t *testing.T) {
	// velz must be nonzero somewhere and have nonzero prev values so
	// NUMARCK can form change ratios for it.
	s := newSmall(t)
	snap := s.Checkpoint()
	nonzero := 0
	for _, w := range snap.Vars["velz"] {
		if w != 0 {
			nonzero++
		}
	}
	if nonzero < s.Cells()/2 {
		t.Errorf("velz nonzero in only %d/%d cells", nonzero, s.Cells())
	}
}

func TestStepAdvancesTimeAndEvolvesState(t *testing.T) {
	s := newSmall(t)
	snap0 := s.Checkpoint()
	dt := s.Step()
	if dt <= 0 {
		t.Fatalf("dt = %v", dt)
	}
	if s.Time() != dt || s.StepCount() != 1 {
		t.Errorf("time %v step %d", s.Time(), s.StepCount())
	}
	snap1 := s.Checkpoint()
	changed := 0
	for i := range snap0.Vars["pres"] {
		if snap0.Vars["pres"][i] != snap1.Vars["pres"][i] {
			changed++
		}
	}
	if changed == 0 {
		t.Error("pressure field did not evolve")
	}
}

func TestChangeRatiosAreSmallBetweenSteps(t *testing.T) {
	// The property NUMARCK exploits: consecutive checkpoints differ by
	// small relative changes for most points.
	s := newSmall(t)
	s.StepN(10) // move past the initial transient
	prev := s.Checkpoint()
	s.StepN(2)
	cur := s.Checkpoint()
	small := 0
	total := 0
	for i := range prev.Vars["dens"] {
		p, c := prev.Vars["dens"][i], cur.Vars["dens"][i]
		if p == 0 {
			continue
		}
		total++
		if math.Abs((c-p)/p) < 0.01 {
			small++
		}
	}
	if frac := float64(small) / float64(total); frac < 0.5 {
		t.Errorf("only %.1f%% of dens changes below 1%%", frac*100)
	}
}

func TestMassConservation(t *testing.T) {
	// Outflow boundaries leak mass only near the edges; over a few
	// steps with a central blast the total mass change must be tiny.
	s := newSmall(t)
	mass0 := totalMass(s)
	s.StepN(20)
	mass1 := totalMass(s)
	if rel := math.Abs(mass1-mass0) / mass0; rel > 0.01 {
		t.Errorf("mass changed by %.2f%%", rel*100)
	}
}

func totalMass(s *Sim) float64 {
	snap := s.Checkpoint()
	var m float64
	for _, rho := range snap.Vars["dens"] {
		m += rho
	}
	return m
}

func TestDeterministicEvolution(t *testing.T) {
	a, err := New(Config{BlocksX: 2, BlocksY: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{BlocksX: 2, BlocksY: 2, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a.StepN(15)
	b.StepN(15)
	sa, sb := a.Checkpoint(), b.Checkpoint()
	for _, v := range Variables {
		for i := range sa.Vars[v] {
			if sa.Vars[v][i] != sb.Vars[v][i] {
				t.Fatalf("variable %q differs at %d with different worker counts", v, i)
			}
		}
	}
}

func TestSeedChangesInitialCondition(t *testing.T) {
	a, _ := New(Config{BlocksX: 2, BlocksY: 2, Seed: 1})
	b, _ := New(Config{BlocksX: 2, BlocksY: 2, Seed: 2})
	sa, sb := a.Checkpoint(), b.Checkpoint()
	same := true
	for i := range sa.Vars["dens"] {
		if sa.Vars["dens"][i] != sb.Vars["dens"][i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical initial density")
	}
}

func TestRestartRoundTrip(t *testing.T) {
	// Restarting from an exact checkpoint must reproduce the original
	// run. The checkpoint stores primitives, so the conserved state is
	// rebuilt with one rounding each way: the continued run matches to
	// near machine precision rather than bit-for-bit.
	s := newSmall(t)
	s.StepN(10)
	snap := s.Checkpoint()
	s.StepN(5)
	want := s.Checkpoint()

	r := newSmall(t)
	if err := r.Restart(snap); err != nil {
		t.Fatal(err)
	}
	if r.StepCount() != snap.Step || r.Time() != snap.Time {
		t.Errorf("restart step/time = %d/%v", r.StepCount(), r.Time())
	}
	r.StepN(5)
	got := r.Checkpoint()
	for _, v := range Variables {
		// Scale the tolerance by the field's magnitude: cells with
		// near-zero velocity would otherwise demand sub-ulp agreement.
		var fieldScale float64
		for _, w := range want.Vars[v] {
			if a := math.Abs(w); a > fieldScale {
				fieldScale = a
			}
		}
		if fieldScale == 0 {
			fieldScale = 1
		}
		for i := range want.Vars[v] {
			w, g := want.Vars[v][i], got.Vars[v][i]
			if math.Abs(g-w) > 1e-9*fieldScale {
				t.Fatalf("variable %q diverged at cell %d after exact restart: %v vs %v", v, i, g, w)
			}
		}
	}
}

func TestRestartValidation(t *testing.T) {
	s := newSmall(t)
	snap := s.Checkpoint()

	missing := &Snapshot{Vars: map[string][]float64{}}
	if err := s.Restart(missing); err == nil {
		t.Error("missing variables accepted")
	}

	short := s.Checkpoint()
	short.Vars["dens"] = short.Vars["dens"][:10]
	if err := s.Restart(short); err == nil {
		t.Error("wrong-size snapshot accepted")
	}

	bad := s.Checkpoint()
	bad.Vars["dens"][0] = -1
	if err := s.Restart(bad); err == nil {
		t.Error("negative density accepted")
	}

	bad2 := s.Checkpoint()
	bad2.Vars["pres"][3] = math.NaN()
	if err := s.Restart(bad2); err == nil {
		t.Error("NaN pressure accepted")
	}

	// The untouched original snapshot still restarts fine.
	if err := s.Restart(snap); err != nil {
		t.Errorf("valid restart failed: %v", err)
	}
}

func TestRestartFromPerturbedCheckpointStaysStable(t *testing.T) {
	// §III-G: FLASH must run successfully from approximated restart
	// files. Perturb a checkpoint by ~0.1% and continue.
	s := newSmall(t)
	s.StepN(10)
	snap := s.Checkpoint()
	for _, v := range []string{"dens", "pres", "velx", "vely", "velz"} {
		for i := range snap.Vars[v] {
			snap.Vars[v][i] *= 1 + 0.001*math.Sin(float64(i))
		}
	}
	r := newSmall(t)
	if err := r.Restart(snap); err != nil {
		t.Fatal(err)
	}
	r.StepN(10)
	after := r.Checkpoint()
	for i, rho := range after.Vars["dens"] {
		if rho <= 0 || math.IsNaN(rho) {
			t.Fatalf("density %v at %d after perturbed restart", rho, i)
		}
	}
}

func BenchmarkStep(b *testing.B) {
	s, err := New(Config{BlocksX: 3, BlocksY: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkCheckpoint(b *testing.B) {
	s, err := New(Config{BlocksX: 3, BlocksY: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Checkpoint()
	}
}

// TestBlockPanicReachesCaller pins that a panic in one block's update
// comes back on the caller's goroutine as a recoverable *panics.Error,
// serial or parallel.
func TestBlockPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s, err := New(Config{BlocksX: 3, BlocksY: 3, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				e, ok := recover().(*panics.Error)
				if !ok || e.Value != "block 3" {
					t.Errorf("%d workers: recovered %v, want the *panics.Error of block 3", workers, e)
				}
			}()
			s.parallelBlocks(func(bi int) {
				if bi == 3 {
					panic("block 3")
				}
			})
		}()
	}
}
