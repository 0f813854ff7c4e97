package server

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"numarck/internal/checkpoint"
	"numarck/internal/chunk"
	"numarck/internal/obs"
)

// headOf returns a copy of a tenant's head bookkeeping for one series,
// or ok=false when the tenant keeps none.
func headOf(tn *Tenant, series string) (h seriesHead, ok bool) {
	tn.headMu.Lock()
	defer tn.headMu.Unlock()
	p := tn.heads[series]
	if p == nil {
		return seriesHead{}, false
	}
	return *p, true
}

// segment is the chain segment Restart reads for iteration k, as
// checkpoint.Segment picks it; a broken chain's leading part when k is
// not restorable.
func segment(chain []checkpoint.ChainEntry, k int) []checkpoint.ChainEntry {
	seg, _ := checkpoint.Segment(chain, k)
	return seg
}

// wantDelta encodes cur against the view's own reconstruction of
// iter-1, exactly as the daemon encodes a delta push: the bytes a push
// must commit if it encoded against Restart.
func wantDelta(t *testing.T, s *Server, view *checkpoint.ReadView, series string, iter int, cur []float64) []byte {
	t.Helper()
	prev, err := view.Restart(series, iter-1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := chunk.EncodeDeltaV2(&buf, series, iter, chunk.SliceSource(prev), chunk.SliceSource(cur), view.Options(), s.plan.Config); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHeadIsRestart pins the series head to the chain: every delta a
// push commits is byte-identical to the encode of its body against
// view.Restart(series, iter-1), and every head the tenant keeps is
// bit-identical to view.Restart at its iteration, through a seeded
// sequence of fulls and deltas with a replayed retry, a 409 conflict,
// and library writes that rewrite iteration i-1 between two pushes —
// once with a delta of other bytes under the same name, once with a
// full of other values. The head is used exactly when nothing moved
// the chain under it, which the head_hits and head_misses counters
// show. A fetch of every head's iteration is Restart's bytes, served
// from the head: fetch_head_hits counts each one.
func TestHeadIsRestart(t *testing.T) {
	for _, seed := range []int64{41, 42, 43} {
		s, ts := newTestServer(t, 0, 0)
		c := &Client{Base: ts.URL, Tenant: "hd"}
		tn, err := s.Registry().Tenant("hd")
		if err != nil {
			t.Fatal(err)
		}
		dir := tn.Dir()
		rng := rand.New(rand.NewSource(seed))
		const n, iters = 1500, 24
		cur := seriesValues(0, n)
		step := func() {
			for i := range cur {
				cur[i] += 0.01 * rng.NormFloat64()
				if rng.Intn(50) == 0 {
					cur[i] *= 1 + rng.Float64()
				}
			}
		}
		// The library writes land at two seeded iterations apart from
		// the fulls; the retry and the conflict at two others.
		fullAt := 1 + 8 + rng.Intn(6)
		rewriteDeltaAt := 2 + rng.Intn(5)
		rewriteFullAt := fullAt + 2 + rng.Intn(iters-fullAt-3)
		retryAt := 1 + rng.Intn(iters-2)
		conflictAt := 1 + rng.Intn(iters-2)

		var hits, misses int64
		for iter := 0; iter < iters; iter++ {
			if iter > 0 {
				step()
			}
			series := "v"
			body := floatBytes(cur)
			var q url.Values
			if iter == 0 || iter == fullAt {
				q = url.Values{"kind": {"full"}}
			}

			switch iter {
			case rewriteDeltaAt, rewriteFullAt:
				// Another writer rewrites iteration iter-1 between two
				// pushes: the head the daemon holds for iter-1 is no
				// longer what the chain reconstructs.
				st, err := checkpoint.Open(dir)
				if err != nil {
					t.Fatalf("seed %d: library open before %d: %v", seed, iter, err)
				}
				other := slices.Clone(cur)
				for i := range other {
					other[i] *= 1.25
				}
				var raw []byte
				if iter == rewriteDeltaAt {
					view, err := tn.View()
					if err != nil {
						t.Fatal(err)
					}
					raw = wantDelta(t, s, view, series, iter-1, other)
				} else if raw, err = checkpoint.MarshalFull(series, iter-1, other); err != nil {
					t.Fatal(err)
				}
				if _, err := st.WriteRaw(series, iter-1, raw, 0); err != nil {
					t.Fatalf("seed %d: library rewrite of %d: %v", seed, iter-1, err)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}

			var want []byte
			if q == nil {
				view, err := tn.View()
				if err != nil {
					t.Fatal(err)
				}
				want = wantDelta(t, s, view, series, iter, cur)
				chain, err := view.Chain(series)
				if err != nil {
					t.Fatal(err)
				}
				if h, ok := headOf(tn, series); ok && h.iter == iter-1 && slices.Equal(h.seg, segment(chain, iter-1)) {
					hits++
				} else {
					misses++
				}
			}
			cr, err := c.Push(series, iter, bytes.NewReader(body), q)
			if err != nil {
				t.Fatalf("seed %d: push %d: %v", seed, iter, err)
			}
			if q == nil {
				got, _, err := c.FetchRaw(series, iter)
				if err != nil {
					t.Fatal(err)
				}
				if cr.Kind != "delta" || !bytes.Equal(got, want) {
					t.Fatalf("seed %d: push %d committed a %s of %d bytes that is not the encode against Restart(%d) (%d bytes)", seed, iter, cr.Kind, len(got), iter-1, len(want))
				}
			}

			// The head the push left is Restart at its iteration.
			view, err := tn.View()
			if err != nil {
				t.Fatal(err)
			}
			h, ok := headOf(tn, series)
			if !ok || h.iter != iter {
				t.Fatalf("seed %d: after push %d the head is %+v, %v; want one at %d", seed, iter, h.iter, ok, iter)
			}
			restarted, err := view.Restart(series, iter)
			if err != nil || !bitsEqual(h.vals, restarted) {
				t.Fatalf("seed %d: head at %d differs from Restart (err %v)", seed, iter, err)
			}
			var fetched bytes.Buffer
			if _, _, err := c.Fetch(series, iter, &fetched, false); err != nil || !bytes.Equal(fetched.Bytes(), floatBytes(restarted)) {
				t.Fatalf("seed %d: fetch of head %d is not Restart's bytes (err %v)", seed, iter, err)
			}
			chain, err := view.Chain(series)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(h.seg, segment(chain, iter)) {
				t.Fatalf("seed %d: head segment at %d = %v, view lists %v", seed, iter, h.seg, segment(chain, iter))
			}

			// A retried delta replays and a conflicting one is refused;
			// neither moves the head, and both encode against a replay,
			// since the head is already at iter.
			if iter == retryAt && iter != fullAt {
				rr, err := c.Push(series, iter, bytes.NewReader(body), url.Values{"kind": {"delta"}})
				if err != nil || !rr.Replayed {
					t.Fatalf("seed %d: retried push %d = %+v, %v; want a replay", seed, iter, rr, err)
				}
				misses++
			}
			if iter == conflictAt && iter != fullAt {
				other := slices.Clone(cur)
				other[0] += 1
				_, err := c.Push(series, iter, bytes.NewReader(floatBytes(other)), url.Values{"kind": {"delta"}})
				var ae *APIError
				if !errors.As(err, &ae) || ae.Status != http.StatusConflict {
					t.Fatalf("seed %d: conflicting push %d = %v, want 409", seed, iter, err)
				}
				misses++
			}
			if h2, _ := headOf(tn, series); h2.iter != h.iter || &h2.vals[0] != &h.vals[0] {
				t.Fatalf("seed %d: a replay or conflict at %d moved the head", seed, iter)
			}
		}

		snap := tn.Recorder().Snapshot()
		if got := snap.Counters[obs.CounterHeadHits.String()]; got != hits {
			t.Errorf("seed %d: head_hits = %d, want %d", seed, got, hits)
		}
		if got := snap.Counters[obs.CounterHeadMisses.String()]; got != misses {
			t.Errorf("seed %d: head_misses = %d, want %d", seed, got, misses)
		}
		if got := snap.Counters[obs.CounterFetchHeadHits.String()]; got != iters {
			t.Errorf("seed %d: fetch_head_hits = %d, want %d", seed, got, iters)
		}
		if got := snap.Counters[obs.CounterFetchHeadMisses.String()]; got != 0 {
			t.Errorf("seed %d: fetch_head_misses = %d, want 0", seed, got)
		}
		// Each rewrite costs exactly the one push after it a replay.
		if hits == 0 || misses < 2 {
			t.Errorf("seed %d: %d hits, %d misses: the sequence did not exercise both paths", seed, hits, misses)
		}
	}
}

// TestHeadFetchChecksBytes pins the byte check in front of a head
// fetch. One byte of one file of the head's segment is flipped on disk
// — the full, the first delta, the last delta — which no journal record
// and no head sees. A fetch of the head's iteration then answers
// corrupt_store, as a replay does, and ?recover=1 answers exactly what
// RestartSalvage does: its values and its lost ranges. The head is not
// written to, and fetch_head_hits and fetch_head_misses count one hit
// before the flip and one miss for each fetch after it.
func TestHeadFetchChecksBytes(t *testing.T) {
	const n, head = 4096, 3
	for _, victim := range []int{0, 1, head} {
		s, ts := newTestServer(t, 0, 0)
		c := &Client{Base: ts.URL, Tenant: "hf"}
		tn, err := s.Registry().Tenant("hf")
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter <= head; iter++ {
			if _, err := c.Push("v", iter, bytes.NewReader(floatBytes(seriesValues(iter, n))), nil); err != nil {
				t.Fatal(err)
			}
		}
		h, ok := headOf(tn, "v")
		if !ok || h.iter != head || len(h.seg) != head+1 {
			t.Fatalf("victim %d: head %d over %d files, %v; want one at %d over %d", victim, h.iter, len(h.seg), ok, head, head+1)
		}
		kept := slices.Clone(h.vals)
		var intact bytes.Buffer
		if _, _, err := c.Fetch("v", head, &intact, false); err != nil || !bytes.Equal(intact.Bytes(), floatBytes(kept)) {
			t.Fatalf("victim %d: fetch of the intact head: %v", victim, err)
		}

		path := filepath.Join(tn.Dir(), h.seg[victim].Name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)*3/5] ^= 0x10
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		var apiErr *APIError
		if _, _, err := c.Fetch("v", head, &bytes.Buffer{}, false); !errors.As(err, &apiErr) || apiErr.Class != "corrupt_store" {
			t.Fatalf("victim %d (%s): fetch over a flipped byte = %v, want corrupt_store", victim, h.seg[victim].Name, err)
		}
		view, err := tn.View()
		if err != nil {
			t.Fatal(err)
		}
		wantVals, wantPartial, wantErr := view.RestartSalvage("v", head)
		var salvaged bytes.Buffer
		_, partial, err := c.Fetch("v", head, &salvaged, true)
		switch {
		case wantErr != nil:
			if !errors.As(err, &apiErr) || apiErr.Class != "corrupt_store" {
				t.Fatalf("victim %d: salvage fetch = %v; RestartSalvage failed with %v", victim, err, wantErr)
			}
		case err != nil:
			t.Fatalf("victim %d: salvage fetch: %v; RestartSalvage succeeded", victim, err)
		case !bytes.Equal(salvaged.Bytes(), floatBytes(wantVals)):
			t.Fatalf("victim %d: salvage fetch is not RestartSalvage's values", victim)
		case (partial == nil) != (wantPartial == nil):
			t.Fatalf("victim %d: salvage fetch reports %+v, RestartSalvage %v", victim, partial, wantPartial)
		case partial != nil:
			want := PartialInfo{LostPoints: wantPartial.LostPoints()}
			for _, lr := range wantPartial.Lost {
				want.Lost = append(want.Lost, RangeJSON{Lo: lr.Lo, Hi: lr.Hi})
			}
			if partial.LostPoints != want.LostPoints || !slices.Equal(partial.Lost, want.Lost) {
				t.Fatalf("victim %d: salvage fetch lost %+v, RestartSalvage %+v", victim, *partial, want)
			}
		}
		if victim == head && partial == nil {
			t.Errorf("victim %d: a flipped byte in the last delta salvaged without a loss", victim)
		}

		if h2, ok := headOf(tn, "v"); !ok || &h2.vals[0] != &h.vals[0] || !bitsEqual(h2.vals, kept) {
			t.Fatalf("victim %d: a fetch moved or wrote to the head", victim)
		}
		snap := tn.Recorder().Snapshot()
		if hits, misses := snap.Counters[obs.CounterFetchHeadHits.String()], snap.Counters[obs.CounterFetchHeadMisses.String()]; hits != 1 || misses != 2 {
			t.Errorf("victim %d: fetch_head_hits %d, fetch_head_misses %d; want 1 and 2", victim, hits, misses)
		}
	}
}

// TestHeadFetchRacesPush races fetches of iteration iter against the
// push of iter+1, which replaces the head they may be served from.
// Whichever of the head or a replay serves it, each fetch returns
// iter's committed values, bit-identical to a serial Restart after the
// push. A serial fetch of the new head after each race is a head hit,
// and every fetch counts once, as a fetch_head_hit or a miss.
func TestHeadFetchRacesPush(t *testing.T) {
	const n, iters, fetchers = 2048, 12, 2
	s, ts := newTestServer(t, 0, 0)
	c := &Client{Base: ts.URL, Tenant: "hr"}
	tn, err := s.Registry().Tenant("hr")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push("v", 0, bytes.NewReader(floatBytes(seriesValues(0, n))), nil); err != nil {
		t.Fatal(err)
	}
	var fetches, serial int64
	for iter := 0; iter+1 < iters; iter++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		got := make([][]byte, fetchers)
		errs := make([]error, fetchers+1)
		for k := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				var b bytes.Buffer
				_, _, errs[k] = c.Fetch("v", iter, &b, false)
				got[k] = b.Bytes()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, errs[fetchers] = c.Push("v", iter+1, bytes.NewReader(floatBytes(seriesValues(iter+1, n))), nil)
		}()
		close(start)
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("race at %d: %v", iter, err)
		}
		fetches += fetchers

		view, err := tn.View()
		if err != nil {
			t.Fatal(err)
		}
		want, err := view.Restart("v", iter)
		if err != nil {
			t.Fatal(err)
		}
		for k, b := range got {
			if !bytes.Equal(b, floatBytes(want)) {
				t.Fatalf("race at %d: fetcher %d got %d bytes that are not Restart(%d)'s", iter, k, len(b), iter)
			}
		}
		next, err := view.Restart("v", iter+1)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if _, _, err := c.Fetch("v", iter+1, &b, false); err != nil || !bytes.Equal(b.Bytes(), floatBytes(next)) {
			t.Fatalf("serial fetch of head %d: %v", iter+1, err)
		}
		fetches++
		serial++
	}
	snap := tn.Recorder().Snapshot()
	hits, misses := snap.Counters[obs.CounterFetchHeadHits.String()], snap.Counters[obs.CounterFetchHeadMisses.String()]
	if hits+misses != fetches || hits < serial {
		t.Errorf("fetch_head_hits %d + fetch_head_misses %d; want %d fetches, at least %d of them hits", hits, misses, fetches, serial)
	}
}

// BenchmarkFetch times one fetch over HTTP of a 32 768-point series
// eight deltas past its full — service_mixed's state size. "head"
// fetches the iteration the daemon holds as the series head, "cold" the
// one before it, which replays the chain.
func BenchmarkFetch(b *testing.B) {
	const n, deltas = 32768, 8
	_, ts := newTestServer(b, 0, 0)
	c := &Client{Base: ts.URL, Tenant: "bf"}
	for iter := 0; iter <= deltas; iter++ {
		if _, err := c.Push("v", iter, bytes.NewReader(floatBytes(seriesValues(iter, n))), nil); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name string
		iter int
	}{{"head", deltas}, {"cold", deltas - 1}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(8 * n)
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if _, _, err := c.Fetch("v", bc.iter, &buf, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// testPlan is the resolved pipeline of newTestServer: what a delta
// push is admitted by.
func testPlan(t *testing.T) chunk.Resolved {
	t.Helper()
	plan, err := chunk.ResolveConfig(testChunkConfig())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// lockPath is a tenant's on-disk writer lock.
func lockPath(tn *Tenant) string { return filepath.Join(tn.Dir(), "LOCK") }

// lockExists reports whether a tenant's LOCK is on disk.
func lockExists(t *testing.T, tn *Tenant) bool {
	t.Helper()
	_, err := os.Stat(lockPath(tn))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return err == nil
}

// waitQueued blocks until n requests wait in the governor.
func waitQueued(t *testing.T, g *Governor, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); g.Stats().Waiting != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("governor queue never reached %d (now %d)", n, g.Stats().Waiting)
		}
	}
}

// pushAsync pushes in the background and returns where the outcome
// arrives.
func pushAsync(c *Client, series string, iter int, vals []float64, q url.Values) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := c.Push(series, iter, bytes.NewReader(floatBytes(vals)), q)
		done <- err
	}()
	return done
}

// occupy admits weight on the governor for the test, failing it if the
// room is not there.
func occupy(t *testing.T, g *Governor, weight int64) func() {
	t.Helper()
	release, err := g.Acquire(context.Background(), weight)
	if err != nil {
		t.Fatal(err)
	}
	return release
}

// TestNoLockAtRest pins the Registry's contract under the writer lease:
// once the last in-flight write of a tenant returns, its directory
// holds no LOCK — after sequential pushes, after a two-client burst,
// and when that last write failed with a 400 while another push's
// commit had left the store open for it.
func TestNoLockAtRest(t *testing.T) {
	t.Run("sequential and burst", func(t *testing.T) {
		s, ts := newTestServer(t, 0, 0)
		tn, err := s.Registry().Tenant("at")
		if err != nil {
			t.Fatal(err)
		}
		c := &Client{Base: ts.URL, Tenant: "at"}
		for iter := 0; iter < 4; iter++ {
			if _, err := c.Push("s", iter, bytes.NewReader(floatBytes(seriesValues(iter, 1024))), nil); err != nil {
				t.Fatal(err)
			}
			if lockExists(t, tn) {
				t.Fatalf("LOCK left after sequential push %d", iter)
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for k := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				series := []string{"a", "b"}[k]
				for iter := 0; iter < 12 && errs[k] == nil; iter++ {
					_, errs[k] = c.Push(series, iter, bytes.NewReader(floatBytes(seriesValues(iter, 1024))), nil)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if lockExists(t, tn) {
			t.Fatal("LOCK left after a two-client burst")
		}
	})

	t.Run("last write fails", func(t *testing.T) {
		const n = 1024
		size := int64(8 * n)
		full := 2*size + 64
		delta := testPlan(t).PeakBufferBytes + 2*size
		s, ts := newTestServer(t, full+delta, 10*time.Second)
		tn, err := s.Registry().Tenant("at")
		if err != nil {
			t.Fatal(err)
		}
		c := &Client{Base: ts.URL, Tenant: "at"}
		if _, err := c.Push("a", 0, bytes.NewReader(floatBytes(seriesValues(0, n))), nil); err != nil {
			t.Fatal(err)
		}

		// Both pushes enter the write path and queue for admission in
		// order: b's full first, then a's delta, which holds a NaN.
		rb, ra := occupy(t, s.Governor(), full), occupy(t, s.Governor(), delta)
		b := pushAsync(c, "b", 0, seriesValues(0, n), nil)
		waitQueued(t, s.Governor(), 1)
		bad := seriesValues(1, n)
		bad[n/2] = math.NaN()
		a := pushAsync(c, "a", 1, bad, nil)
		waitQueued(t, s.Governor(), 2)

		rb()
		if err := <-b; err != nil {
			t.Fatal(err)
		}
		if !lockExists(t, tn) {
			t.Fatal("b committed with a's write in flight, but left no LOCK: the store was not kept open")
		}
		ra()
		var ae *APIError
		if err := <-a; !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Fatalf("NaN delta = %v, want 400", err)
		}
		if lockExists(t, tn) {
			t.Fatal("LOCK left after the tenant's last write failed with a 400")
		}
	})
}

// TestStorectlDuringLease pins what an operator CLI sees while the
// daemon keeps a tenant's store open between two clients' commits:
// checkpoint.Open gets a LockHeldError naming this process, which
// storectl renders as a held lock and the daemon's error table maps to
// 423, and the same Open succeeds once the burst ends. The second
// client's commit goes through the store the first one left open.
func TestStorectlDuringLease(t *testing.T) {
	// b's full is admitted first; a's is twice as large, so it stays
	// queued after b's request gives its room back, until r2 goes.
	const n = 1024
	full, big := int64(2*8*n+64), int64(2*8*2*n+64)
	s, ts := newTestServer(t, full+big, 10*time.Second)
	tn, err := s.Registry().Tenant("ls")
	if err != nil {
		t.Fatal(err)
	}
	a := &Client{Base: ts.URL, Tenant: "ls"}
	b := &Client{Base: ts.URL, Tenant: "ls"}
	if _, err := a.Push("a", 0, bytes.NewReader(floatBytes(seriesValues(0, n))), nil); err != nil {
		t.Fatal(err)
	}

	r1, r2 := occupy(t, s.Governor(), full), occupy(t, s.Governor(), big)
	fullQ := url.Values{"kind": {"full"}}
	bDone := pushAsync(b, "b", 0, seriesValues(0, n), fullQ)
	waitQueued(t, s.Governor(), 1)
	aDone := pushAsync(a, "a", 1, seriesValues(1, 2*n), fullQ)
	waitQueued(t, s.Governor(), 2)
	r1()
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}

	_, err = checkpoint.Open(tn.Dir())
	var lh *checkpoint.LockHeldError
	if !errors.As(err, &lh) || lh.PID != os.Getpid() {
		t.Fatalf("operator open during the burst = %v, want LockHeldError naming pid %d", err, os.Getpid())
	}
	if ae := classify(err); ae.Status != http.StatusLocked {
		t.Errorf("held lock maps to %d, want 423", ae.Status)
	}
	if msg := OperatorMessage(err); !strings.Contains(msg, "holder pid") {
		t.Errorf("storectl would print %q, which does not name the holder", msg)
	}

	r2()
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Open(tn.Dir())
	if err != nil {
		t.Fatalf("operator open after the burst: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tn.Recorder().Snapshot().Counters[obs.CounterLeaseReuses.String()]; got != 1 {
		t.Errorf("lease_reuses = %d, want 1", got)
	}
}

// TestHeadsYieldToRequests pins the governor's accounting of heads:
// with a capacity set, the heads the daemon keeps show in its used
// bytes; a push that needs their room evicts them, least recently used
// first, and is admitted where a governor that could not evict them
// would answer 429 within the short admit wait; and once requests
// drain, used is exactly the heads still kept.
func TestHeadsYieldToRequests(t *testing.T) {
	const n = 2048
	size := int64(8 * n)
	delta := testPlan(t).PeakBufferBytes + 2*size
	full := 2*size + 64
	capacity := delta + size
	if 3*size+full > capacity {
		t.Fatalf("test sizing: three heads and a full push (%d) do not fit %d", 3*size+full, capacity)
	}
	s, ts := newTestServer(t, capacity, 50*time.Millisecond)
	tn, err := s.Registry().Tenant("gv")
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Base: ts.URL, Tenant: "gv"}
	for _, series := range []string{"s0", "s1", "s2"} {
		if _, err := c.Push(series, 0, bytes.NewReader(floatBytes(seriesValues(0, n))), nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Governor().Stats(); st.UsedBytes != 3*size || st.HeldBytes != 3*size {
		t.Fatalf("after three pushes the governor has used %d, held %d; want both %d (three heads)", st.UsedBytes, st.HeldBytes, 3*size)
	}
	if capacity-3*size >= delta {
		t.Fatalf("test sizing: a delta push (%d) fits beside the heads without evicting", delta)
	}

	if _, err := c.Push("s2", 1, bytes.NewReader(floatBytes(seriesValues(1, n))), nil); err != nil {
		t.Fatalf("delta push that needs the heads' room: %v", err)
	}
	for _, series := range []string{"s0", "s1"} {
		if _, ok := headOf(tn, series); ok {
			t.Errorf("head of %s survived: the two least recently used heads should have made room", series)
		}
	}
	h, ok := headOf(tn, "s2")
	if !ok || h.iter != 1 {
		t.Fatalf("head of s2 = %+v, %v; want one at iteration 1", h.iter, ok)
	}
	snap := tn.Recorder().Snapshot()
	if snap.Counters[obs.CounterHeadHits.String()] != 1 {
		t.Errorf("head_hits = %d, want 1: the most recently used head should have stayed", snap.Counters[obs.CounterHeadHits.String()])
	}
	if st := s.Governor().Stats(); st.UsedBytes != size || st.HeldBytes != size {
		t.Errorf("after requests drain the governor has used %d, held %d; want both %d (one head)", st.UsedBytes, st.HeldBytes, size)
	}
}

// TestLeaseChecksLock pins the check before a held store is reused: if
// the LOCK it was opened under is gone and another writer holds the
// store, the next commit does not write through the stale handle — it
// opens the store as a first write would and gets 423 — and the other
// writer's LOCK is left in place.
func TestLeaseChecksLock(t *testing.T) {
	// b's full is admitted first; a's is twice as large, so it stays
	// queued after b's request gives its room back, until r2 goes.
	const n = 1024
	full, big := int64(2*8*n+64), int64(2*8*2*n+64)
	s, ts := newTestServer(t, full+big, 10*time.Second)
	tn, err := s.Registry().Tenant("lc")
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Base: ts.URL, Tenant: "lc"}
	if _, err := c.Push("a", 0, bytes.NewReader(floatBytes(seriesValues(0, n))), nil); err != nil {
		t.Fatal(err)
	}
	r1, r2 := occupy(t, s.Governor(), full), occupy(t, s.Governor(), big)
	fullQ := url.Values{"kind": {"full"}}
	bDone := pushAsync(c, "b", 0, seriesValues(0, n), fullQ)
	waitQueued(t, s.Governor(), 1)
	aDone := pushAsync(c, "a", 1, seriesValues(1, 2*n), fullQ)
	waitQueued(t, s.Governor(), 2)
	r1()
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}

	// The daemon's LOCK vanishes and an operator takes the store.
	if err := os.Remove(lockPath(tn)); err != nil {
		t.Fatal(err)
	}
	op, err := checkpoint.Open(tn.Dir())
	if err != nil {
		t.Fatal(err)
	}
	r2()
	var ae *APIError
	if err := <-aDone; !errors.As(err, &ae) || ae.Status != http.StatusLocked {
		t.Fatalf("commit while another writer holds the store = %v, want 423", err)
	}
	if got := tn.Recorder().Snapshot().Counters[obs.CounterLeaseReuses.String()]; got != 0 {
		t.Errorf("lease_reuses = %d, want 0", got)
	}
	if !lockExists(t, tn) {
		t.Fatal("the daemon removed the operator's LOCK")
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push("a", 1, bytes.NewReader(floatBytes(seriesValues(1, n))), fullQ); err != nil {
		t.Fatalf("push after the operator released the store: %v", err)
	}
}
