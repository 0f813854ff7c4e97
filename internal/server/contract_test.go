package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"

	"numarck/internal/checkpoint"
	"numarck/internal/chunk"
	"numarck/internal/core"
	"numarck/internal/faultfs"
)

// hostileChain is a seeded chain of iters states of n points that moves
// ~1 % a step, with every eighth point doing what a change-ratio codec
// likes least: sitting at or crossing zero (no ratio exists), living
// among the denormals (the ratio overflows or rounds coarsely), flipping
// sign (ratio ≈ −2), or jumping by many orders of magnitude and back.
func hostileChain(seed int64, n, iters int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	states := make([][]float64, iters)
	states[0] = make([]float64, n)
	for j := range states[0] {
		states[0][j] = (50 + 50*rng.Float64()) * float64(1-2*(j&1))
	}
	for i := 1; i < iters; i++ {
		prev, cur := states[i-1], make([]float64, n)
		for j := range cur {
			cur[j] = prev[j] * (1 + 0.01*rng.NormFloat64())
			if j%8 != 0 {
				continue
			}
			switch (j / 8) % 4 {
			case 0: // zero for two steps out of six, so both 0 → x and x → 0 occur
				if i%6 < 2 {
					cur[j] = 0
				} else if prev[j] == 0 {
					cur[j] = 10 * rng.NormFloat64()
				}
			case 1: // denormal, with excursions to normal magnitudes and back
				cur[j] = math.Float64frombits(uint64(1 + rng.Intn(1<<20)))
				if i%5 == 0 {
					cur[j] = rng.Float64()
				}
			case 2:
				cur[j] = -prev[j] * (1 + 0.01*rng.NormFloat64())
			case 3:
				if i%2 == 1 {
					cur[j] = prev[j] * 1e7
				} else {
					cur[j] = prev[j] * 1e-7
				}
			}
		}
		states[i] = cur
	}
	return states
}

// unsynced is the real filesystem minus the fsyncs. The chain bound is
// arithmetic: the two library stores of every contract case would
// otherwise spend most of the test waiting for 130 durable commits.
type unsynced struct{ faultfs.FS }

type unsyncedFile struct{ faultfs.File }

func (unsyncedFile) Sync() error { return nil }

func (u unsynced) Create(name string) (faultfs.File, error) {
	f, err := u.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return unsyncedFile{f}, nil
}

func (u unsynced) Append(name string) (faultfs.File, error) {
	f, err := u.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return unsyncedFile{f}, nil
}

func (unsynced) SyncDir(string) error { return nil }

// ulp is the spacing of float64 values at |v|.
func ulp(v float64) float64 {
	v = math.Abs(v)
	return math.Nextafter(v, math.Inf(1)) - v
}

// errOverBound returns the worst per-point |got − want| ÷ (E·|ref|),
// where ref is the restart of the previous iteration: the one chain
// bound. Rounding is forgiven — four ulps at the magnitudes involved,
// which is what the ratio, the table sum and the product can lose —
// and nothing else: a point whose bound is zero must come back exact.
func errOverBound(got, want, ref []float64, e float64) float64 {
	worst := 0.0
	for j := range want {
		err := math.Abs(got[j]-want[j]) - 4*ulp(math.Max(math.Abs(want[j]), math.Abs(ref[j])))
		if err <= 0 {
			continue
		}
		worst = math.Max(worst, err/(e*math.Abs(ref[j])))
	}
	return worst
}

// TestChainBoundContract is the paper's contract, end to end and once:
// whatever the inputs (NaN and Inf excepted, which are refused),
// strategy, index width and chain depth, every point of a restart is
// within E·|x̂_{i−1}| of the truth, x̂_{i−1} being the restart of the
// iteration before — through the library Writer and through the daemon,
// which moreover agree bit for bit. The same chain written open-loop
// (Store.WriteDelta against the true previous state, what the Writer did
// before it kept its own reconstruction) breaks the bound by depth 16,
// which is what makes this test fail on an open-loop Writer.
func TestChainBoundContract(t *testing.T) {
	const n, depth, e = 1024, 64, 0.001
	states := hostileChain(25, n, depth+1)
	strategies := append([]core.Strategy{core.EqualFrequency}, core.Strategies...)
	for _, strategy := range strategies {
		for _, bits := range []int{3, 8, 12} {
			opt := core.Options{ErrorBound: e, IndexBits: bits, Strategy: strategy}
			t.Run(fmt.Sprintf("%s/B%d", strategy, bits), func(t *testing.T) {
				t.Parallel()
				root, fsys := t.TempDir(), unsynced{faultfs.OS()}
				lib, err := checkpoint.CreateFS(filepath.Join(root, "lib"), opt, fsys)
				if err != nil {
					t.Fatal(err)
				}
				defer lib.Close()
				open, err := checkpoint.CreateFS(filepath.Join(root, "open"), opt, fsys)
				if err != nil {
					t.Fatal(err)
				}
				defer open.Close()
				srv, err := New(Config{Root: filepath.Join(root, "daemon"), Opt: opt})
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				c := &Client{Base: ts.URL, Tenant: "sim"}
				w := checkpoint.NewWriter(lib, 0)

				for i, x := range states {
					if i == 1 {
						// Refused, and the refusal leaves both chains where
						// they were: the real iteration 1 follows.
						bad := append([]float64(nil), x...)
						for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
							bad[5] = v
							if _, err := w.Append(1, map[string][]float64{"v": bad}); !errors.Is(err, core.ErrNonFinite) {
								t.Errorf("library append of %v: %v, want ErrNonFinite", v, err)
							}
							if _, err := c.Push("v", 1, bytes.NewReader(floatBytes(bad)), nil); err == nil {
								t.Errorf("daemon accepted %v", v)
							}
						}
					}
					if _, err := w.Append(i, map[string][]float64{"v": x}); err != nil {
						t.Fatalf("library append %d: %v", i, err)
					}
					if _, err := c.Push("v", i, bytes.NewReader(floatBytes(x)), nil); err != nil {
						t.Fatalf("daemon push %d: %v", i, err)
					}
					if i == 0 {
						err = open.WriteFull("v", 0, x)
					} else {
						_, err = open.WriteDelta("v", i, states[i-1], x)
					}
					if err != nil {
						t.Fatalf("open-loop write %d: %v", i, err)
					}
				}

				// restart returns iteration i from the library store, having
				// checked that the daemon returns the same bits.
				restart := func(i int) []float64 {
					got, err := lib.Restart("v", i)
					if err != nil {
						t.Fatalf("library restart %d: %v", i, err)
					}
					var body bytes.Buffer
					if _, _, err := c.Fetch("v", i, &body, false); err != nil {
						t.Fatalf("daemon fetch %d: %v", i, err)
					}
					if !bytes.Equal(body.Bytes(), floatBytes(got)) {
						t.Fatalf("depth %d: the daemon's restart differs from the library's", i)
					}
					return got
				}
				if !bitsEqual(restart(0), states[0]) {
					t.Error("depth 0 is not exact")
				}
				worstClosed, worstOpen := map[int]float64{}, map[int]float64{}
				for _, d := range []int{1, 16, 64} {
					worstClosed[d] = errOverBound(restart(d), states[d], restart(d-1), e)
					if worstClosed[d] > 1+1e-9 {
						t.Errorf("depth %d: error is %.6f of the bound E·|x̂_{i-1}|", d, worstClosed[d])
					}
					ref, err := open.Restart("v", d-1)
					if err != nil {
						t.Fatal(err)
					}
					got, err := open.Restart("v", d)
					if err != nil {
						t.Fatal(err)
					}
					worstOpen[d] = errOverBound(got, states[d], ref, e)
				}
				t.Logf("%s: worst error ÷ (E·|x̂_{i-1}|) at depth 1 / 16 / 64: closed-loop %.3f / %.3f / %.3f, open-loop %.3f / %.3f / %.3f", t.Name(),
					worstClosed[1], worstClosed[16], worstClosed[64], worstOpen[1], worstOpen[16], worstOpen[64])
				if worstOpen[1] > 1+1e-9 {
					t.Errorf("one open-loop step is within the bound by construction, got %.6f", worstOpen[1])
				}
				if worstOpen[16] <= 1 || worstOpen[64] <= 1 {
					t.Errorf("open-loop chain stays inside the closed-loop bound (%.3f at 16, %.3f at 64): the test no longer tells the two apart", worstOpen[16], worstOpen[64])
				}
			})
		}
	}
}

// TestLibraryDaemonRestartIdentical is the differential form: a library
// store and a daemon tenant with the same options, fed the same
// iterations on the same full-checkpoint schedule, restart bit-identical
// at every iteration although their files differ — one NMRKD1 section
// from the Writer, several NMRKD2 chunks from the daemon's streaming
// encode.
func TestLibraryDaemonRestartIdentical(t *testing.T) {
	const n, iters, fullEvery = 4096, 20, 7
	opt := testOptions(t)
	lib, err := checkpoint.Create(filepath.Join(t.TempDir(), "lib"), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()
	srv, err := New(Config{Root: t.TempDir(), Opt: opt, Chunk: chunk.Config{ChunkPoints: 512, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL, Tenant: "sim"}
	w := checkpoint.NewWriter(lib, fullEvery)
	for i, x := range hostileChain(26, n, iters) {
		encs, err := w.Append(i, map[string][]float64{"v": x})
		if err != nil {
			t.Fatal(err)
		}
		kind := "full"
		if encs["v"] != nil {
			kind = "delta"
		}
		cr, err := c.Push("v", i, bytes.NewReader(floatBytes(x)), url.Values{"kind": {kind}})
		if err != nil {
			t.Fatal(err)
		}
		if kind == "delta" && cr.Chunks < 2 {
			t.Fatalf("iteration %d: the daemon wrote %d chunk(s), want a multi-chunk file", i, cr.Chunks)
		}
		want, err := lib.Restart("v", i)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		if _, _, err := c.Fetch("v", i, &body, false); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body.Bytes(), floatBytes(want)) {
			t.Fatalf("iteration %d: daemon and library restarts differ", i)
		}
	}
}
