// Command numarck compresses, decompresses, and inspects NUMARCK
// checkpoint files from the command line. Data files are raw
// little-endian float64 arrays.
//
// Usage:
//
//	numarck compress   -prev prev.f64 -cur cur.f64 -out ckpt.nmk [-e 0.001] [-b 8] [-strategy clustering] [-var name] [-iter n] [-chunk points] [-workers n] [-budget bytes]
//	numarck compress   -nc data.nc -var rlus -from 4 -to 5 -out ckpt.nmk
//	numarck decompress -prev prev.f64 -in ckpt.nmk -out rec.f64 [-workers n] [-recover]
//	numarck inspect    -in ckpt.nmk
//	numarck restart    -dir store -var dens -iter 12 -out rec.f64 [-recover]
//
// With -addr, compress and decompress run as clients of a numarckd
// daemon instead of touching local files: compress pushes the current
// values and lets the daemon delta-encode against its chain with the
// tenant store's options (so -e, -b, -strategy, -chunk, -workers and
// -budget are refused alongside -addr), and decompress fetches a
// server-side reconstruction. compress -plan
// prints the resolved pipeline plan (chunk size, workers, peak buffer
// bytes) for the given -chunk/-workers/-budget without doing any work.
//
// -recover turns on degraded-mode decode: chunks of a chunked (v2)
// delta whose CRC fails are quarantined, every healthy chunk decodes,
// and the exact lost point ranges (which keep the previous iteration's
// values in the output) are reported on stderr, merged as a salvage
// restart merges them. Both modes stream: -workers goroutines read the
// delta and -prev in chunk windows. A read-only v1 delta is one chunk
// under one CRC, so there -recover changes nothing: healthy it decodes,
// corrupt it fails. Without -recover, any corruption fails the command
// — fail-closed is the default. `storectl verify` prints a store's
// health report.
//
// compress writes the chunked v2 format, the one every writer emits.
// From -prev/-cur files it runs the out-of-core pipeline of
// numarck.StreamEncoder: the inputs are read in -chunk windows by
// -workers under the -budget memory cap. A netCDF slab pair is encoded
// in memory.
//
// compress and decompress accept -metrics (per-stage timing and
// counter table on stderr) and -metrics-json path (the same snapshot
// as JSON), backed by the internal/obs recorder.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"numarck"
	"numarck/internal/checkpoint"
	"numarck/internal/chunk"
	"numarck/internal/core"
	"numarck/internal/faultfs"
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
                     [-chunk points] [-workers n] [-budget bytes]
  numarck compress   -nc data.nc -var rlus -from 4 -to 5 -out ckpt.nmk
  numarck decompress -prev prev.f64 -in ckpt.nmk -out rec.f64 [-workers n] [-recover]
  numarck inspect    -in ckpt.nmk
  numarck restart    -dir store -var name -iter n -out rec.f64 [-recover]

daemon client mode (against a running numarckd):
  numarck compress   -addr http://host:8377 -tenant t -var dens -iter n -cur cur.f64
  numarck decompress -addr http://host:8377 -tenant t -var dens -iter n -out rec.f64 [-recover]
  numarck compress   -plan [-chunk points] [-workers n] [-budget bytes]

compress -addr encodes with the tenant store's options and the daemon's
pipeline; it refuses -e, -b, -strategy, -chunk, -workers and -budget.

-recover salvages chunk-local corruption in chunked (v2) deltas:
healthy chunks decode on -workers goroutines, lost point ranges keep the
previous iteration's values and are reported; without it (and for
read-only v1 deltas, which are one chunk under one CRC) any corruption
fails the command. decompress streams in either mode: it holds no more
than the in-flight chunks.
storectl verify prints a checkpoint store's health report.

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
	chunkPoints := fs.Int("chunk", 0, "file inputs: points per chunk (0 = default)")
	budget := fs.Int64("budget", 0, "file inputs: memory budget in bytes (0 = no cap)")
	workers := fs.Int("workers", 0, "file inputs: concurrent chunks (0 = GOMAXPROCS)")
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
		var local []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "e", "b", "strategy", "chunk", "workers", "budget":
				local = append(local, "-"+f.Name)
			}
		})
		if len(local) > 0 {
			return fmt.Errorf("compress -addr: %s cannot be set: the tenant store's options and the daemon's pipeline decide the encode", strings.Join(local, ", "))
		}
		return remoteCompress(*addr, *tenant, *variable, *iter, *curPath)
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
	if *ncPath == "" {
		if *prevPath == "" || *curPath == "" {
			return fmt.Errorf("compress requires either -prev and -cur, or -nc with -from/-to")
		}
		cfg := chunk.Config{ChunkPoints: *chunkPoints, Workers: *workers, BudgetBytes: *budget}
		res, err := numarck.StreamEncoder{Opt: opt, Config: cfg}.EncodeFiles(*outPath, *variable, *iter, *prevPath, *curPath)
		if err != nil {
			return err
		}
		info, err := os.Stat(*outPath)
		if err != nil {
			return err
		}
		fmt.Printf("compressed %d points in %d chunks of %d (%d workers, peak buffers %d bytes): incompressible %d, file %d bytes\n",
			res.N, res.ChunkCount, res.ChunkPoints, res.Workers, res.PeakBufferBytes, res.ExactCount, info.Size())
		return metrics.emit(rec)
	}
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
	prev, err := nf.Slab(v, *from)
	if err != nil {
		return err
	}
	cur, err := nf.Slab(v, *to)
	if err != nil {
		return err
	}
	if *iter == 1 {
		*iter = *to
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

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	prevPath := fs.String("prev", "", "previous iteration values (.f64)")
	inPath := fs.String("in", "", "checkpoint file")
	outPath := fs.String("out", "", "output values (.f64)")
	workers := fs.Int("workers", 0, "concurrent chunks, with or without -recover (0 = GOMAXPROCS)")
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
	rec := metrics.recorder()
	if err := decompressFile(*inPath, *prevPath, *outPath, chunk.Config{Workers: *workers, Obs: rec}, *salvage); err != nil {
		return err
	}
	return metrics.emit(rec)
}

// decompressFile streams the reconstruction of the delta at inPath on
// top of the raw float64 file at prevPath into outPath, holding no more
// than the in-flight chunks. With salvage, corrupt v2 chunks keep prev's
// values and the lost ranges are reported on stderr.
func decompressFile(inPath, prevPath, outPath string, cfg chunk.Config, salvage bool) error {
	in, err := os.Open(inPath)
	if err != nil {
		return err
	}
	//lint:ignore errcheck read-only source; a close error cannot lose data
	defer in.Close()
	info, err := in.Stat()
	if err != nil {
		return err
	}
	d, err := checkpoint.OpenDelta(in, info.Size())
	if err != nil {
		return err
	}
	prev, err := rawio.OpenFile(prevPath)
	if err != nil {
		return err
	}
	//lint:ignore errcheck read-only source; a close error cannot lose data
	defer prev.Close()
	var w *rawio.Writer
	var pde *checkpoint.PartialDataError
	err = writeOut(outPath, func(out io.Writer) error {
		w = rawio.NewWriter(out)
		emit := func(vals []float64) error { return w.WriteFloats(vals) }
		if salvage {
			var err error
			pde, err = chunk.DecodeRecover(d, prev, cfg, emit)
			return err
		}
		return chunk.DecodeDeltaV2(d, prev, cfg, emit)
	})
	if err != nil {
		return err
	}
	meta := d.Meta()
	if pde != nil {
		fmt.Fprintf(os.Stderr, "numarck: %v\n", pde)
		fmt.Printf("salvaged %s@%d: %d of %d points (%d lost, holding previous-iteration values)\n",
			meta.Variable, meta.Iteration, w.Count()-pde.LostPoints(), w.Count(), pde.LostPoints())
		return nil
	}
	fmt.Printf("decoded %s@%d: %d points from %d chunks\n", meta.Variable, meta.Iteration, w.Count(), meta.ChunkCount)
	return nil
}

// writeOut streams write's output into outPath all or nothing: into
// outPath+".tmp", which is fsynced and renamed over outPath only when
// write succeeds, so a failed decode leaves no truncated output and an
// existing outPath as it was (the rawio.WriteFile pattern).
func writeOut(outPath string, write func(io.Writer) error) error {
	tmp := outPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, outPath)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort: the write's error is the one to report
		return err
	}
	return faultfs.OS().SyncDir(filepath.Dir(outPath))
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
