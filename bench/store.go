package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"numarck"
	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/faultfs"
)

// storeParams sizes one of the two library-path workloads.
type storeParams struct {
	// vars variables of points points each change under profile and
	// are encoded with strategy.
	vars, points int
	profile      profile
	strategy     numarck.Strategy
	// fullEvery is the Writer's full-checkpoint period (0: only the
	// first checkpoint is full).
	fullEvery int
	// fixtureIters iterations are in the store before the first op.
	fixtureIters int
	// writes appends, then reads cold restarts, make one round.
	writes, reads int
	// readFixed makes every read restart the fixture's last iteration
	// (a fixed depth); otherwise reads restart the latest iteration.
	readFixed bool
}

// storeInstance is store_small or restart_chain: one caller on the
// library path, on disk with real fsyncs. A write op is one
// Writer.Append of the next iteration (one durable commit per
// variable); a read op is what a restarting job does: a cold
// OpenReadOnly and a Restart of every variable.
type storeInstance struct {
	name string
	out  *outcome
	p    storeParams
	opt  numarck.Options
	dir  string

	names []string
	rngs  []*rand.Rand
	// prev and cur are the true states of the last two iterations;
	// bounds is the error bound of a restart at the latest iteration.
	prev, cur [][]float64
	bounds    []*chainBound
	// fixedTruth and fixedBounds are cur and bounds frozen at the
	// fixture's last iteration, for readFixed.
	fixedTruth  [][]float64
	fixedBounds []*chainBound
	next        int // the iteration the next write op appends

	st      *numarck.Store
	cfs     *countingFS
	user    int64 // user bytes written, fixture included
	entries int   // chain entries in the store

	// What the traced rounds saw at each commit.
	commitLen, commitMs []float64 // delta commits only, for the slope
	commits             int
	commitFS            fsCounts
	commitUser          int64
	verifyIssues        int
}

func setupSmall(e env, dir string, out *outcome) (instance, error) {
	return setupStore("store_small", 2, e.sc.small, e, dir, out)
}

func setupChain(e env, dir string, out *outcome) (instance, error) {
	return setupStore("restart_chain", 3, e.sc.chain, e, dir, out)
}

// setupStore builds the fixture through the public API on a filesystem
// whose syncs are no-ops, flushes it, and reopens the store on the real
// filesystem with the writer resumed from the last true state.
func setupStore(name string, stream int64, p storeParams, e env, dir string, out *outcome) (instance, error) {
	s := &storeInstance{
		name: name, out: out, p: p, dir: dir,
		opt: numarck.Options{ErrorBound: errorBound, IndexBits: indexBits, Strategy: p.strategy},
		cfs: newCountingFS(),
	}
	for v := 0; v < p.vars; v++ {
		x, rng := e.gen.initial(stream*100+int64(v), p.points)
		s.names = append(s.names, fmt.Sprintf("v%d", v))
		s.rngs = append(s.rngs, rng)
		s.cur = append(s.cur, x)
		s.prev = append(s.prev, nil)
		s.bounds = append(s.bounds, &chainBound{e: errorBound})
	}

	fixture, err := checkpoint.CreateFS(dir, s.opt, noSyncFS{faultfs.OS()})
	if err != nil {
		return nil, err
	}
	fw := checkpoint.NewWriter(fixture, p.fullEvery)
	for s.next < p.fixtureIters {
		it := s.next
		if _, err := fw.Append(it, s.advance()); err != nil {
			return nil, err
		}
	}
	if err := fixture.Close(); err != nil {
		return nil, err
	}
	// The fixture's pages are dirty; flush them now so that the first
	// measured fsyncs pay for their own data only.
	syscall.Sync()
	for v := range s.cur {
		s.fixedTruth = append(s.fixedTruth, s.cur[v])
		s.fixedBounds = append(s.fixedBounds, s.bounds[v].clone())
	}

	if e.traced {
		s.st, err = checkpoint.OpenFS(dir, s.cfs, nil)
	} else {
		s.st, err = numarck.OpenStore(dir)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// resume returns a Writer that continues the store from the last true
// state: after the fixture, and after a traced round, whose commits
// bypass the Writer.
func (s *storeInstance) resume() *numarck.Writer {
	last := map[string][]float64{}
	for v, name := range s.names {
		last[name] = s.cur[v]
	}
	return checkpoint.NewWriterAt(s.st, s.p.fullEvery, s.next-1, last)
}

// isFull reports whether the Writer stores iteration it in full.
func (s *storeInstance) isFull(it int) bool {
	return it == 0 || (s.p.fullEvery > 0 && it%s.p.fullEvery == 0)
}

// advance generates the next iteration's true states and extends the
// restart bound: reset at a full checkpoint, one more factor at a
// delta.
func (s *storeInstance) advance() map[string][]float64 {
	vars := make(map[string][]float64, len(s.names))
	for v, name := range s.names {
		if s.next > 0 {
			s.prev[v], s.cur[v] = s.cur[v], step(s.rngs[v], s.p.profile, s.cur[v])
		}
		if s.isFull(s.next) {
			s.bounds[v].reset(s.p.points)
		} else {
			s.bounds[v].step(s.prev[v], s.cur[v])
		}
		vars[name] = s.cur[v]
	}
	s.next++
	s.user += int64(8 * s.p.vars * s.p.points)
	s.entries += s.p.vars
	return vars
}

// readIter returns the iteration a read op restarts, or -1 for the
// latest restorable one.
func (s *storeInstance) readIter() int {
	if s.p.readFixed {
		return s.p.fixtureIters - 1
	}
	return -1
}

// restart is the read op through the façade.
func (s *storeInstance) restart() ([][]float64, error) {
	rv, err := numarck.OpenReadOnly(s.dir)
	if err != nil {
		return nil, err
	}
	got := make([][]float64, len(s.names))
	for v, name := range s.names {
		it := s.readIter()
		if it < 0 {
			if it, err = rv.LatestRestorable(name); err != nil {
				return nil, err
			}
		}
		if got[v], err = rv.Restart(name, it); err != nil {
			return nil, err
		}
	}
	return got, nil
}

// tracedAppend is the write op as layer calls: what Writer.Append does
// for each variable. The commit span is the store's own entry point
// (WriteFull, WriteEncodedDelta), so it includes serializing the file;
// the codec ladder reports that share separately.
func (s *storeInstance) tracedAppend(tr *tracer, it int) error {
	op := tr.start(nil, harnessLayer, "write")
	defer op.end()
	s.cfs.tr = tr
	defer func() { s.cfs.tr, s.cfs.parent = nil, nil }()
	full := s.isFull(it)
	for v, name := range s.names {
		var enc *core.Encoded
		if !full {
			sp := tr.start(op, "core", "encode")
			var err error
			enc, err = core.Encode(s.prev[v], s.cur[v], s.opt)
			sp.end()
			if err != nil {
				return err
			}
		}
		before := s.cfs.n
		sp := tr.start(op, "checkpoint.store", "commit")
		s.cfs.parent = sp
		t0 := time.Now()
		var err error
		if full {
			err = s.st.WriteFull(name, it, s.cur[v])
		} else {
			err = s.st.WriteEncodedDelta(name, it, enc)
		}
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return err
		}
		s.commits++
		s.commitFS = s.commitFS.add(s.cfs.n.sub(before))
		s.commitUser += int64(8 * s.p.points)
		if !full {
			s.commitLen = append(s.commitLen, float64(s.entries-s.p.vars+v))
			s.commitMs = append(s.commitMs, ms(d))
		}
	}
	return nil
}

// tracedRestart is the read op as layer calls: open, list the chain,
// then file read → unmarshal → decode for the full checkpoint and every
// delta after it.
func (s *storeInstance) tracedRestart(tr *tracer) ([][]float64, error) {
	op := tr.start(nil, harnessLayer, "read")
	defer op.end()
	s.cfs.tr = tr
	defer func() { s.cfs.tr, s.cfs.parent = nil, nil }()
	layer := func(layer, name string) *span {
		sp := tr.start(op, layer, name)
		s.cfs.parent = sp
		return sp
	}

	sp := layer("checkpoint.store", "open_readonly")
	rv, err := checkpoint.OpenReadOnlyFS(s.dir, s.cfs, nil)
	sp.end()
	if err != nil {
		return nil, err
	}
	got := make([][]float64, len(s.names))
	for v, name := range s.names {
		it := s.readIter()
		if it < 0 {
			sp = layer("checkpoint.store", "latest_restorable")
			it, err = rv.LatestRestorable(name)
			sp.end()
			if err != nil {
				return nil, err
			}
		}
		sp = layer("checkpoint.store", "chain")
		chain, err := rv.Chain(name)
		sp.end()
		if err != nil {
			return nil, err
		}
		first := -1
		for i, ce := range chain {
			if ce.Kind == "full" && ce.Iteration <= it {
				first = i
			}
		}
		if first < 0 {
			return nil, fmt.Errorf("%s: no full checkpoint of %s at or before %d", s.name, name, it)
		}
		var data []float64
		for _, ce := range chain[first:] {
			if ce.Iteration > it {
				break
			}
			sp = layer("faultfs", "read_file")
			raw, err := faultfs.ReadFile(s.cfs, filepath.Join(s.dir, ce.Name))
			sp.end()
			if err != nil {
				return nil, err
			}
			if ce.Kind == "full" {
				sp = layer("checkpoint.format", "unmarshal_full")
				_, _, data, err = checkpoint.UnmarshalFull(raw)
				sp.end()
				if err != nil {
					return nil, err
				}
				continue
			}
			sp = layer("checkpoint.format", "unmarshal_delta")
			_, _, enc, err := checkpoint.UnmarshalDelta(raw)
			sp.end()
			if err != nil {
				return nil, err
			}
			sp = layer("core", "decode")
			data, err = enc.Decode(data)
			sp.end()
			if err != nil {
				return nil, err
			}
		}
		got[v] = data
	}
	return got, nil
}

func (s *storeInstance) round(rs *roundStats, tr *tracer) {
	userBytes := 8 * s.p.vars * s.p.points
	var w *numarck.Writer
	if tr == nil {
		w = s.resume()
	}
	for i := 0; i < s.p.writes; i++ {
		it := s.next
		vars := s.advance()
		t0 := time.Now()
		var err error
		if tr == nil {
			_, err = w.Append(it, vars)
		} else {
			err = s.tracedAppend(tr, it)
		}
		rs.write(time.Since(t0), userBytes)
		s.out.op(err)
	}
	truth, bounds := s.cur, s.bounds
	if s.p.readFixed {
		truth, bounds = s.fixedTruth, s.fixedBounds
	}
	for i := 0; i < s.p.reads; i++ {
		t0 := time.Now()
		var got [][]float64
		var err error
		if tr == nil {
			got, err = s.restart()
		} else {
			got, err = s.tracedRestart(tr)
		}
		rs.read(time.Since(t0), userBytes)
		s.out.op(err)
		if err != nil {
			continue
		}
		worst := 0.0
		for v := range got {
			worst = max(worst, bounds[v].errOverBound(got[v], truth[v]))
		}
		s.out.verified(s.name+": restart", worst)
	}
}

// dirBytes returns the bytes of the files under dir whose names end in
// suffix ("" for every file).
func dirBytes(dir, suffix string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), suffix) {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	return total, err
}

func (s *storeInstance) finish(m metrics) {
	issues, err := s.st.Verify()
	s.out.check(err)
	s.verifyIssues = len(issues)
	if len(issues) > 0 {
		s.out.check(fmt.Errorf("%s: Store.Verify: %d issues, first: %v", s.name, len(issues), issues[0]))
	}
	s.out.check(s.st.Close())
	stored, err := dirBytes(s.dir, "")
	s.out.check(err)
	m.set("stored_bytes_per_user_byte", float64(stored)/float64(s.user))
}

func (s *storeInstance) layers(m metrics, tr *tracer) {
	var pairs [][2][]float64
	for v := range s.cur {
		pairs = append(pairs, [2][]float64{s.prev[v], s.cur[v]})
	}
	s.out.check(codecLadder(m, pairs, s.opt, s.dir))

	commit := tr.durations("checkpoint.store", "commit")
	m.set("checkpoint.commit_ms", median(commit))
	m.set("checkpoint.commit_ms_per_1k_chain_entries", 1000*slope(s.commitLen, s.commitMs))
	if w := sum(tr.durations(harnessLayer, "write")); w > 0 {
		m.set("checkpoint.commit_share_of_write", sum(commit)/w)
	}
	m.set("checkpoint.open_readonly_ms", median(tr.durations("checkpoint.store", "open_readonly")))
	m.set("checkpoint.verify_issues", float64(s.verifyIssues))
	if n := float64(s.commits); n > 0 {
		m.set("faultfs.fsyncs_per_commit", float64(s.commitFS.Syncs)/n)
		m.set("faultfs.dir_syncs_per_commit", float64(s.commitFS.DirSyncs)/n)
		m.set("faultfs.bytes_written_per_commit", float64(s.commitFS.BytesWritten)/n)
		m.set("faultfs.device_bytes_per_user_byte", float64(s.commitFS.BytesWritten)/float64(s.commitUser))
		m.set("faultfs.sync_ms_per_commit", float64(s.commitFS.SyncNs)/1e6/n)
	}
	s.out.check(s.openAndRestart(m))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// openAndRestart times a writer open (with its recovery scan) and
// restarts at depth 0 and at the deepest iteration below the same full
// checkpoint, on the store as the run left it.
func (s *storeInstance) openAndRestart(m metrics) error {
	var open timer
	for i := 0; i < 3; i++ {
		err := open.time(func() error {
			st, err := checkpoint.OpenFS(s.dir, faultfs.OS(), nil)
			if err != nil {
				return err
			}
			return st.Close()
		})
		if err != nil {
			return err
		}
	}
	m.set("checkpoint.open_writer_ms", median(open.ns)/1e6)

	rv, err := checkpoint.OpenReadOnlyFS(s.dir, s.cfs, nil)
	if err != nil {
		return err
	}
	name := s.names[0]
	deep := s.readIter()
	if deep < 0 {
		if deep, err = rv.LatestRestorable(name); err != nil {
			return err
		}
	}
	full := deep
	for !s.isFull(full) {
		full--
	}
	var atFull, atDeep timer
	var seen fsCounts
	for i := 0; i < 5; i++ {
		if err := atFull.time(func() error { _, err := rv.Restart(name, full); return err }); err != nil {
			return err
		}
		before := s.cfs.n
		if err := atDeep.time(func() error { _, err := rv.Restart(name, deep); return err }); err != nil {
			return err
		}
		seen = s.cfs.n.sub(before)
	}
	m.set("checkpoint.restart_full_ms", median(atFull.ns)/1e6)
	if deep > full {
		m.set("checkpoint.restart_ms_per_delta", (median(atDeep.ns)-median(atFull.ns))/1e6/float64(deep-full))
	}
	m.set("faultfs.files_opened_per_restart", float64(seen.Opened))
	m.set("faultfs.bytes_read_per_restart", float64(seen.BytesRead))
	return nil
}

func (s *storeInstance) close() {
	if s.st != nil {
		// Close is idempotent; finish has usually closed it already.
		_ = s.st.Close()
	}
	_ = os.RemoveAll(s.dir)
}
