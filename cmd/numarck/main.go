// Command numarck compresses, decompresses, and inspects NUMARCK
// checkpoint files from the command line. Data files are raw
// little-endian float64 arrays.
//
// Usage:
//
//	numarck compress   -prev prev.f64 -cur cur.f64 -out ckpt.nmk [-e 0.001] [-b 8] [-strategy clustering] [-var name] [-iter n]
//	numarck compress   -prev prev.f64 -cur cur.f64 -out ckpt.nmk -stream [-chunk points] [-budget bytes]
//	numarck compress   -nc data.nc -var rlus -from 4 -to 5 -out ckpt.nmk
//	numarck decompress -prev prev.f64 -in ckpt.nmk -out rec.f64 [-workers n] [-recover]
//	numarck inspect    -in ckpt.nmk
//	numarck restart    -dir store -var dens -iter 12 -out rec.f64 [-recover]
//	numarck verify     -dir store
//
// With -addr, compress, decompress, and verify run as clients of a
// numarckd daemon instead of touching local files: compress pushes the
// current values and lets the daemon delta-encode against its chain,
// decompress fetches a server-side reconstruction, and verify asks for
// the daemon's lock-free deep chain report. compress -plan prints the
// resolved pipeline plan (chunk size, workers, peak buffer bytes) for
// the given -chunk/-workers/-budget without doing any work.
//
// -recover turns on degraded-mode decode: chunks of a chunked (v2)
// delta whose CRC fails are quarantined, every healthy chunk decodes,
// and the exact lost point ranges (which keep the previous iteration's
// values in the output) are reported on stderr. A v1 delta is one chunk
// under one CRC, so there -recover changes nothing: healthy it decodes,
// corrupt it fails. Without -recover, any corruption fails the command
// — fail-closed is the default. verify
// prints a chain health report: the Open-time recovery scan's findings,
// deep per-file and journal checks, quarantined files, and the latest
// restorable iteration per variable.
//
// With -stream, compress runs the out-of-core pipeline: the inputs are
// read in chunks under the -budget memory cap and the chunked v2
// format is written, which decompress can later decode in parallel and
// storectl verify can check per chunk.
//
// compress and decompress accept -metrics (per-stage timing and
// counter table on stderr) and -metrics-json path (the same snapshot
// as JSON), backed by the internal/obs recorder.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"

	"numarck/internal/checkpoint"
	"numarck/internal/chunk"
	"numarck/internal/core"
	"numarck/internal/ncdf"
	"numarck/internal/obs"
	"numarck/internal/rawio"
	"numarck/internal/server"
)

// metricsFlags registers the shared -metrics/-metrics-json flags on fs
// and returns the destinations they select.
func metricsFlags(fs *flag.FlagSet) *metricsOut {
	m := &metricsOut{}
	fs.BoolVar(&m.text, "metrics", false, "print per-stage timings and counters to stderr")
	fs.StringVar(&m.jsonPath, "metrics-json", "", "write per-stage timings and counters as JSON to `path`")
	return m
}

// metricsOut holds the parsed -metrics/-metrics-json destinations.
type metricsOut struct {
	text     bool
	jsonPath string
}

// recorder returns a live recorder when either flag asked for metrics,
// else nil — the pipelines' no-op state.
func (m *metricsOut) recorder() *obs.Recorder {
	if !m.text && m.jsonPath == "" {
		return nil
	}
	return obs.NewRecorder()
}

// emit snapshots rec into the selected destinations: an aligned text
// table on stderr, JSON to the -metrics-json path, or both. A nil rec
// (flags off) is a no-op.
func (m *metricsOut) emit(rec *obs.Recorder) error {
	if rec == nil {
		return nil
	}
	snap := rec.Snapshot()
	if m.text {
		if err := snap.WriteText(os.Stderr); err != nil {
			return err
		}
	}
	if m.jsonPath != "" {
		f, err := os.Create(m.jsonPath)
		if err != nil {
			return err
		}
		err = snap.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "decompress":
		err = cmdDecompress(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "restart":
		err = cmdRestart(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "numarck: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "numarck: %s\n", server.OperatorMessage(err))
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  numarck compress   -prev prev.f64 -cur cur.f64 -out ckpt.nmk [-e 0.001] [-b 8] [-strategy clustering] [-var name] [-iter n]
  numarck compress   -prev prev.f64 -cur cur.f64 -out ckpt.nmk -stream [-chunk points] [-budget bytes]
  numarck decompress -prev prev.f64 -in ckpt.nmk -out rec.f64 [-workers n] [-recover]
  numarck inspect    -in ckpt.nmk
  numarck restart    -dir store -var name -iter n -out rec.f64 [-recover]
  numarck verify     -dir store

daemon client mode (against a running numarckd):
  numarck compress   -addr http://host:8377 -tenant t -var dens -iter n -cur cur.f64
  numarck decompress -addr http://host:8377 -tenant t -var dens -iter n -out rec.f64 [-recover]
  numarck verify     -addr http://host:8377 -tenant t
  numarck compress   -stream -plan [-chunk points] [-workers n] [-budget bytes]

-recover salvages chunk-local corruption in chunked (v2) deltas:
healthy chunks decode, lost point ranges keep the previous iteration's
values and are reported; without it (and for v1 deltas, which are one
chunk under one CRC) any corruption fails the command.
verify prints a chain health report for a checkpoint store.

compress/decompress also take -metrics and -metrics-json path
data files are raw little-endian float64 arrays`)
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	prevPath := fs.String("prev", "", "previous iteration values (.f64); pass the previous *reconstruction* when building a chain")
	curPath := fs.String("cur", "", "current iteration values (.f64)")
	ncPath := fs.String("nc", "", "netCDF classic input file (use with -var/-from/-to)")
	from := fs.Int("from", -1, "netCDF: index of the previous timestep")
	to := fs.Int("to", -1, "netCDF: index of the current timestep")
	outPath := fs.String("out", "", "output checkpoint file")
	e := fs.Float64("e", 0.001, "error bound E as a fraction (0.001 = 0.1%)")
	b := fs.Int("b", 8, "index bits B")
	strategyName := fs.String("strategy", "clustering", "equal-width | log-scale | clustering")
	variable := fs.String("var", "data", "variable name recorded in the header")
	iter := fs.Int("iter", 1, "iteration number recorded in the header")
	stream := fs.Bool("stream", false, "out-of-core encode to the chunked v2 format")
	chunkPoints := fs.Int("chunk", 0, "streaming: points per chunk (0 = default)")
	budget := fs.Int64("budget", 0, "streaming: memory budget in bytes (0 = no cap)")
	workers := fs.Int("workers", 0, "streaming: concurrent chunks (0 = GOMAXPROCS)")
	plan := fs.Bool("plan", false, "print the resolved pipeline plan (chunk, workers, peak bytes) and exit")
	addr := fs.String("addr", "", "numarckd base URL: commit to a running daemon instead of a local file")
	tenant := fs.String("tenant", "default", "daemon mode: tenant to commit into")
	metrics := metricsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *plan {
		resolved, err := chunk.ResolveConfig(chunk.Config{ChunkPoints: *chunkPoints, Workers: *workers, BudgetBytes: *budget})
		if err != nil {
			return err
		}
		fmt.Printf("pipeline plan: %d workers x %d-point chunks, peak buffers %d bytes\n",
			resolved.Config.Workers, resolved.Config.ChunkPoints, resolved.PeakBufferBytes)
		return nil
	}
	if *addr != "" {
		if *curPath == "" {
			return fmt.Errorf("compress -addr requires -cur (the daemon reconstructs -prev from its chain)")
		}
		q := remoteQuery(*e, *b, *strategyName, *chunkPoints, *workers, *budget)
		return remoteCompress(*addr, *tenant, *variable, *iter, *curPath, q)
	}
	if *outPath == "" {
		return fmt.Errorf("compress requires -out")
	}
	strategy, err := core.ParseStrategy(*strategyName)
	if err != nil {
		return err
	}
	rec := metrics.recorder()
	opt := core.Options{ErrorBound: *e, IndexBits: *b, Strategy: strategy, Obs: rec}
	if *stream {
		if *prevPath == "" || *curPath == "" {
			return fmt.Errorf("compress -stream requires -prev and -cur files")
		}
		cfg := chunk.Config{ChunkPoints: *chunkPoints, Workers: *workers, BudgetBytes: *budget}
		if err := streamCompress(*outPath, *variable, *iter, *prevPath, *curPath, opt, cfg); err != nil {
			return err
		}
		return metrics.emit(rec)
	}
	var prev, cur []float64
	switch {
	case *ncPath != "":
		if *from < 0 || *to < 0 {
			return fmt.Errorf("compress -nc requires -from and -to timestep indices")
		}
		nf, err := ncdf.ReadFile(*ncPath)
		if err != nil {
			return err
		}
		v, err := nf.VarByName(*variable)
		if err != nil {
			return err
		}
		if prev, err = nf.Slab(v, *from); err != nil {
			return err
		}
		if cur, err = nf.Slab(v, *to); err != nil {
			return err
		}
		if *iter == 1 {
			*iter = *to
		}
	case *prevPath != "" && *curPath != "":
		if prev, err = rawio.ReadFile(*prevPath); err != nil {
			return err
		}
		if cur, err = rawio.ReadFile(*curPath); err != nil {
			return err
		}
	default:
		return fmt.Errorf("compress requires either -prev and -cur, or -nc with -from/-to")
	}
	enc, err := core.Encode(prev, cur, opt)
	if err != nil {
		return err
	}
	raw, err := checkpoint.MarshalDelta(*variable, *iter, enc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, raw, 0o644); err != nil {
		return err
	}
	cr, err := enc.CompressionRatio()
	if err != nil {
		return err
	}
	fmt.Printf("compressed %d points: incompressible %.2f%%, mean err %.5f%%, max err %.5f%%, Eq.3 ratio %.2f%%, file %d bytes\n",
		enc.N, enc.Gamma()*100, enc.MeanErrorRate()*100, enc.MaxErrorRate()*100, cr, len(raw))
	return metrics.emit(rec)
}

// streamCompress runs the out-of-core encode: file sources, chunked
// pipeline, v2 output.
func streamCompress(outPath, variable string, iter int, prevPath, curPath string, opt core.Options, cfg chunk.Config) error {
	prev, err := rawio.OpenFile(prevPath)
	if err != nil {
		return err
	}
	//lint:ignore errcheck read-only source; a close error cannot lose data
	defer prev.Close()
	cur, err := rawio.OpenFile(curPath)
	if err != nil {
		return err
	}
	//lint:ignore errcheck read-only source; a close error cannot lose data
	defer cur.Close()
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	res, err := chunk.EncodeDeltaV2(out, variable, iter, prev, cur, opt, cfg)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	info, err := os.Stat(outPath)
	if err != nil {
		return err
	}
	fmt.Printf("streamed %d points in %d chunks of %d (%d workers, peak buffers %d bytes): incompressible %d, file %d bytes\n",
		res.N, res.ChunkCount, res.ChunkPoints, res.Workers, res.PeakBufferBytes, res.ExactCount, info.Size())
	return nil
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	prevPath := fs.String("prev", "", "previous iteration values (.f64)")
	inPath := fs.String("in", "", "checkpoint file")
	outPath := fs.String("out", "", "output values (.f64)")
	workers := fs.Int("workers", 0, "concurrent chunks (0 = GOMAXPROCS)")
	salvage := fs.Bool("recover", false, "salvage healthy chunks past corruption (chunked v2 input)")
	addr := fs.String("addr", "", "numarckd base URL: fetch a reconstruction from a running daemon")
	tenant := fs.String("tenant", "default", "daemon mode: tenant to read from")
	series := fs.String("var", "", "daemon mode: series to reconstruct")
	seriesIter := fs.Int("iter", -1, "daemon mode: iteration to reconstruct")
	metrics := metricsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr != "" {
		if *series == "" || *seriesIter < 0 || *outPath == "" {
			return fmt.Errorf("decompress -addr requires -var, -iter, and -out")
		}
		return remoteDecompress(*addr, *tenant, *series, *seriesIter, *outPath, *salvage)
	}
	if *prevPath == "" || *inPath == "" || *outPath == "" {
		return fmt.Errorf("decompress requires -prev, -in, and -out")
	}
	raw, err := os.ReadFile(*inPath)
	if err != nil {
		return err
	}
	d, err := checkpoint.OpenDelta(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		return err
	}
	obsRec := metrics.recorder()
	decompress := streamDecompress
	if *salvage {
		decompress = salvageDecompress
	}
	if err := decompress(d, *prevPath, *outPath, *workers, obsRec); err != nil {
		return err
	}
	return metrics.emit(obsRec)
}

// streamDecompress reconstructs a delta of either format with the
// streaming parallel decoder, never holding more than the in-flight
// chunks (a v1 file is one chunk).
func streamDecompress(d *checkpoint.DeltaReader, prevPath, outPath string, workers int, rec *obs.Recorder) error {
	prev, err := rawio.OpenFile(prevPath)
	if err != nil {
		return err
	}
	//lint:ignore errcheck read-only source; a close error cannot lose data
	defer prev.Close()
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	w := rawio.NewWriter(out)
	err = chunk.DecodeDeltaV2(d, prev, chunk.Config{Workers: workers, Obs: rec}, func(vals []float64) error {
		return w.WriteFloats(vals)
	})
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	meta := d.Meta()
	fmt.Printf("decoded %s@%d: %d points from %d chunks\n", meta.Variable, meta.Iteration, w.Count(), meta.ChunkCount)
	return nil
}

// salvageDecompress is streamDecompress in degraded mode: corrupt
// chunks are quarantined, healthy ones decoded, and the lost point
// ranges (which keep prev's values in the output) reported on stderr.
// A v1 file has nothing chunk-local to salvage: healthy it decodes,
// corrupt it already failed, at the open, on its one CRC.
func salvageDecompress(d *checkpoint.DeltaReader, prevPath, outPath string, workers int, rec *obs.Recorder) error {
	prev, err := rawio.ReadFile(prevPath)
	if err != nil {
		return err
	}
	out, err := d.DecodeRecover(prev, workers, checkpoint.RecoverOptions{Salvage: true, Obs: rec})
	var pde *checkpoint.PartialDataError
	if err != nil && !errors.As(err, &pde) {
		return err
	}
	if err := rawio.WriteFile(outPath, out); err != nil {
		return err
	}
	meta := d.Meta()
	if pde == nil {
		fmt.Printf("decoded %s@%d: %d points (no corruption found)\n", meta.Variable, meta.Iteration, len(out))
		return nil
	}
	fmt.Fprintf(os.Stderr, "numarck: %v\n", pde)
	fmt.Printf("salvaged %s@%d: %d of %d points (%d lost, holding previous-iteration values)\n",
		meta.Variable, meta.Iteration, len(out)-pde.LostPoints(), len(out), pde.LostPoints())
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	inPath := fs.String("in", "", "checkpoint file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" {
		return fmt.Errorf("inspect requires -in")
	}
	raw, err := os.ReadFile(*inPath)
	if err != nil {
		return err
	}
	d, deltaErr := checkpoint.OpenDelta(bytes.NewReader(raw), int64(len(raw)))
	if deltaErr == nil {
		meta := d.Meta()
		enc, err := d.Encoded()
		if err != nil {
			return err
		}
		fmt.Printf("delta checkpoint (v%d) %s@%d\n", meta.Version, meta.Variable, meta.Iteration)
		fmt.Printf("  points:          %d\n", meta.N)
		fmt.Printf("  chunks:          %d x %d points\n", meta.ChunkCount, meta.ChunkPoints)
		fmt.Printf("  error bound:     %.4f%%\n", meta.Opt.ErrorBound*100)
		fmt.Printf("  index bits:      %d\n", meta.Opt.IndexBits)
		fmt.Printf("  strategy:        %s\n", meta.Opt.Strategy)
		fmt.Printf("  bins used:       %d / %d\n", len(meta.BinRatios), meta.Opt.NumBins())
		fmt.Printf("  incompressible:  %d (%.2f%%)\n", enc.Incompressible.Count(), enc.Gamma()*100)
		if cr, err := enc.CompressionRatio(); err == nil {
			fmt.Printf("  Eq.3 ratio:      %.2f%%\n", cr)
		}
		return nil
	}
	if variable, iter, data, err := checkpoint.UnmarshalFull(raw); err == nil {
		fmt.Printf("full checkpoint %s@%d\n", variable, iter)
		fmt.Printf("  points:     %d\n", len(data))
		fmt.Printf("  file bytes: %d (%.2f%% of raw)\n", len(raw), float64(len(raw))/float64(8*len(data))*100)
		return nil
	}
	if ix, err := checkpoint.ParseChainIndex(raw); err == nil {
		fmt.Printf("chain index (seq %d)\n", ix.Seq)
		fmt.Printf("  journal anchor:  %d bytes, tail CRC %08x\n", ix.JournalLen, ix.JournalTailCRC)
		fmt.Printf("  entries:         %d\n", len(ix.Entries))
		for _, e := range ix.Entries {
			fmt.Printf("  %s %s@%d: %d bytes, CRC %08x\n", e.Kind, e.Variable, e.Iteration, e.Len, e.CRC)
		}
		return nil
	}
	return fmt.Errorf("%s is not a NUMARCK checkpoint file (as a delta: %v)", *inPath, deltaErr)
}

func cmdRestart(args []string) error {
	fs := flag.NewFlagSet("restart", flag.ExitOnError)
	dir := fs.String("dir", "", "checkpoint store directory")
	variable := fs.String("var", "", "variable name")
	iter := fs.Int("iter", -1, "iteration to reconstruct")
	outPath := fs.String("out", "", "output values (.f64)")
	salvage := fs.Bool("recover", false, "salvage healthy chunks of corrupt v2 deltas in the chain")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *variable == "" || *iter < 0 || *outPath == "" {
		return fmt.Errorf("restart requires -dir, -var, -iter, and -out")
	}
	// Restart is a pure read: use the lock-free read view, which works
	// while a writer holds the store and never mutates it.
	st, err := checkpoint.OpenReadOnly(*dir)
	if err != nil {
		return err
	}
	var data []float64
	var pde *checkpoint.PartialDataError
	if *salvage {
		data, pde, err = st.RestartSalvage(*variable, *iter)
	} else {
		data, err = st.Restart(*variable, *iter)
	}
	if err != nil {
		return err
	}
	if err := rawio.WriteFile(*outPath, data); err != nil {
		return err
	}
	if pde != nil {
		fmt.Fprintf(os.Stderr, "numarck: %v\n", pde)
		fmt.Printf("reconstructed %s@%d: %d points (%d stale after salvage)\n", *variable, *iter, len(data), pde.LostPoints())
		return nil
	}
	fmt.Printf("reconstructed %s@%d: %d points\n", *variable, *iter, len(data))
	return nil
}

// cmdVerify prints a chain health report for a checkpoint store: the
// Open-time recovery scan's findings, every issue the deep Verify pass
// found (parse, CRC, chain-gap, and journal cross-check), the contents
// of quarantine/, and the latest restorable iteration per variable.
func cmdVerify(args []string) (err error) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "", "checkpoint store directory")
	addr := fs.String("addr", "", "numarckd base URL: verify a daemon-held store over HTTP")
	tenant := fs.String("tenant", "default", "daemon mode: tenant to verify")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr != "" {
		return remoteVerify(*addr, *tenant)
	}
	if *dir == "" {
		return fmt.Errorf("verify requires -dir")
	}
	st, err := checkpoint.Open(*dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	fmt.Printf("recovery scan: %s\n", st.Recovery())
	fmt.Printf("%s\n", st.IndexHealth())
	issues, err := st.Verify()
	if err != nil {
		return err
	}
	for _, is := range issues {
		fmt.Printf("issue: %s\n", is)
	}
	quarantined, err := st.Quarantined()
	if err != nil {
		return err
	}
	for _, name := range quarantined {
		fmt.Printf("quarantined: %s\n", name)
	}
	vars, err := st.Variables()
	if err != nil {
		return err
	}
	for _, v := range vars {
		latest, err := st.LatestRestorable(v)
		if err != nil {
			fmt.Printf("%s: not restorable (%v)\n", v, err)
			continue
		}
		fmt.Printf("%s: restorable through iteration %d\n", v, latest)
	}
	if len(issues) == 0 && len(quarantined) == 0 && st.Recovery().Clean() {
		fmt.Println("store is healthy")
		return nil
	}
	return fmt.Errorf("store has %d issue(s), %d quarantined file(s)", len(issues), len(quarantined))
}
