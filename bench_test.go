// Benchmarks that regenerate every table and figure of the paper's
// evaluation section (§III). Each BenchmarkFigN/BenchmarkTableN runs a
// reduced-size version of the corresponding experiment per iteration
// and reports the headline metric via b.ReportMetric; `go run
// ./cmd/experiments -exp all` performs the full-size runs recorded in
// EXPERIMENTS.md.
//
// Run with: go test -bench=. -benchmem
package numarck_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"numarck"
	"numarck/internal/checkpoint"
	"numarck/internal/experiments"
)

const benchSeed = experiments.DefaultSeed

// BenchmarkFig1ChangeDistribution regenerates Fig. 1: the distribution
// of rlus change ratios between consecutive iterations.
func BenchmarkFig1ChangeDistribution(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		frac = res.FracBelow["0.5%"]
	}
	b.ReportMetric(frac*100, "%<0.5%change")
}

// BenchmarkFig3Histograms regenerates Fig. 3: the 255-bin histograms of
// FLASH dens changes under the three strategies.
func BenchmarkFig3Histograms(b *testing.B) {
	var occupied int
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		occupied = res.Strategies[2].OccupiedBins
	}
	b.ReportMetric(float64(occupied), "clustering-bins")
}

// BenchmarkFig4CMIP5 regenerates Fig. 4 (reduced to 8 iterations):
// per-strategy incompressible ratio and mean error on the six CMIP5
// variables.
func BenchmarkFig4CMIP5(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(8, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range res.Results {
			if r.Opt.Strategy == numarck.Clustering && r.AvgGamma() > worst {
				worst = r.AvgGamma()
			}
		}
	}
	b.ReportMetric(worst*100, "worst-clustering-gamma%")
}

// BenchmarkFig5FLASH regenerates Fig. 5 (reduced to 8 checkpoints) on
// the ten FLASH variables.
func BenchmarkFig5FLASH(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(8, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range res.Results {
			if r.Opt.Strategy == numarck.Clustering && r.AvgGamma() > worst {
				worst = r.AvgGamma()
			}
		}
	}
	b.ReportMetric(worst*100, "worst-clustering-gamma%")
}

// BenchmarkFig6Precision regenerates Fig. 6 (reduced to 10 iterations):
// the B in {8,9,10} sweep on rlds with equal-width binning.
func BenchmarkFig6Precision(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(10, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		drop = res.Rows[0].AvgGamma - res.Rows[1].AvgGamma
	}
	b.ReportMetric(drop*100, "gamma-drop-8to9%")
}

// BenchmarkFig7ErrorBound regenerates Fig. 7 (reduced to 10
// iterations): the E sweep on abs550aer with clustering.
func BenchmarkFig7ErrorBound(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(10, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		drop = res.Rows[0].AvgGamma - res.Rows[len(res.Rows)-1].AvgGamma
	}
	b.ReportMetric(drop*100, "gamma-drop-0.1to0.5%")
}

// BenchmarkTable1CompressionRatio regenerates Table I (reduced to 6
// iterations): B-Splines vs ISABELA vs NUMARCK compression ratios on
// the ten datasets.
func BenchmarkTable1CompressionRatio(b *testing.B) {
	var wins int
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTables(experiments.TableConfig{Iterations: 6, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		wins = 0
		for _, row := range res.Rows {
			if row.RNUMARCK.Mean > row.RISABELA.Mean {
				wins++
			}
		}
	}
	b.ReportMetric(float64(wins), "numarck-wins/10")
}

// BenchmarkTable2Accuracy regenerates Table II (reduced to 6
// iterations): Pearson rho and RMSE for the three compressors.
func BenchmarkTable2Accuracy(b *testing.B) {
	var minRho float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTables(experiments.TableConfig{Iterations: 6, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		minRho = 1
		for _, row := range res.Rows {
			if row.RhoNUMARCK.Mean < minRho {
				minRho = row.RhoNUMARCK.Mean
			}
		}
	}
	b.ReportMetric(minRho, "min-numarck-rho")
}

// BenchmarkFig8Restart regenerates Fig. 8 (reduced): restart the FLASH
// simulation from reconstructed checkpoints at distances 2 and 3 and
// measure accumulated error over 3 continued checkpoints.
func BenchmarkFig8Restart(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8(experiments.Fig8Config{
			Distances:           []int{2, 3},
			ContinueCheckpoints: 3,
			Seed:                benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		sums := res.Summarize()
		worst = sums[2].WorstMaxErr // clustering
	}
	b.ReportMetric(worst*100, "clustering-worst-max-err%")
}

// BenchmarkAblationSeeding regenerates the k-means seeding ablation
// (reduced to 4 iterations) on abs550aer.
func BenchmarkAblationSeeding(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSeedingAblation(4, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		var h, u float64
		for _, row := range res.Rows {
			h += row.GammaHistogram
			u += row.GammaUniform
		}
		gap = (u - h) / float64(len(res.Rows))
	}
	b.ReportMetric(gap*100, "gamma-advantage%")
}

// BenchmarkAblationDistributed regenerates the local-vs-global table
// ablation: data movement and storage across rank counts.
func BenchmarkAblationDistributed(b *testing.B) {
	var moved int64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDistributedAblation(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		moved = 0
		for _, row := range res.Rows {
			if row.Ranks == 16 && row.Mode.String() == "global-table" {
				moved = row.BytesMoved
			}
		}
	}
	b.ReportMetric(float64(moved), "bytes-moved-16ranks")
}

// --- micro-benchmarks of the core encode/decode paths ----------------

func benchData(n int) (prev, cur []float64) {
	rng := rand.New(rand.NewSource(1))
	prev = make([]float64, n)
	cur = make([]float64, n)
	for i := range prev {
		prev[i] = 10 + rng.Float64()*90
		change := rng.NormFloat64() * 0.002
		if rng.Float64() < 0.02 {
			change = rng.NormFloat64() * 0.2
		}
		cur[i] = prev[i] * (1 + change)
	}
	return prev, cur
}

func benchEncode(b *testing.B, s numarck.Strategy, n int) {
	prev, cur := benchData(n)
	opt := numarck.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: s}
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := numarck.Encode(prev, cur, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeEqualWidth64K(b *testing.B) { benchEncode(b, numarck.EqualWidth, 1<<16) }
func BenchmarkEncodeLogScale64K(b *testing.B)   { benchEncode(b, numarck.LogScale, 1<<16) }
func BenchmarkEncodeClustering64K(b *testing.B) { benchEncode(b, numarck.Clustering, 1<<16) }
func BenchmarkEncodeClustering1M(b *testing.B)  { benchEncode(b, numarck.Clustering, 1<<20) }

// benchStreamEncode measures the out-of-core pipeline against the
// in-memory BenchmarkEncode* figures above: same data, same options,
// chunked two-pass encode to the v2 format.
func benchStreamEncode(b *testing.B, s numarck.Strategy, n int) {
	prev, cur := benchData(n)
	enc := numarck.StreamEncoder{
		Opt:    numarck.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: s},
		Config: numarck.StreamConfig{ChunkPoints: 1 << 14},
	}
	var buf bytes.Buffer
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := enc.Encode(&buf, "bench", 1, numarck.SliceSource(prev), numarck.SliceSource(cur)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamEncodeEqualWidth64K(b *testing.B) {
	benchStreamEncode(b, numarck.EqualWidth, 1<<16)
}
func BenchmarkStreamEncodeClustering64K(b *testing.B) {
	benchStreamEncode(b, numarck.Clustering, 1<<16)
}

// BenchmarkEncodeDeltaFile pairs the two drivers that write a delta
// file, at the sizes the daemon and the CMIP5 grid send (12 960 points),
// at 65 536 points and at codec_large's 524 288 (two default chunks):
// core.Encode + checkpoint.MarshalDelta (what Writer.Append runs)
// against chunk.EncodeDeltaV2 with the default Config (what the daemon
// and `numarck compress` run). Both write the same bytes; stream/inmem
// of one size and strategy is the ratio PERF.md §5 discusses, and
// B/op is what a warm encode allocates per call.
func BenchmarkEncodeDeltaFile(b *testing.B) {
	for _, n := range []int{12960, 1 << 16, 1 << 19} {
		prev, cur := benchData(n)
		for _, s := range []numarck.Strategy{numarck.EqualWidth, numarck.LogScale, numarck.Clustering} {
			opt := numarck.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: s}
			b.Run(fmt.Sprintf("n=%d/%s/inmem", n, s), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(8 * n))
				for i := 0; i < b.N; i++ {
					enc, err := numarck.Encode(prev, cur, opt)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := checkpoint.MarshalDelta("bench", 1, enc); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("n=%d/%s/stream", n, s), func(b *testing.B) {
				enc := numarck.StreamEncoder{Opt: opt}
				var buf bytes.Buffer
				b.ReportAllocs()
				b.SetBytes(int64(8 * n))
				for i := 0; i < b.N; i++ {
					buf.Reset()
					if _, err := enc.Encode(&buf, "bench", 1, numarck.SliceSource(prev), numarck.SliceSource(cur)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchStreamDecode measures the parallel chunked decode of a v2 file
// at a given worker count. A row with more workers than GOMAXPROCS
// measures scheduling, not scaling, and says so with env_limited=1.
func benchStreamDecode(b *testing.B, workers int) {
	const n = 1 << 16
	prev, cur := benchData(n)
	enc := numarck.StreamEncoder{
		Opt:    numarck.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: numarck.Clustering},
		Config: numarck.StreamConfig{ChunkPoints: 1 << 13},
	}
	var buf bytes.Buffer
	if _, err := enc.Encode(&buf, "bench", 1, numarck.SliceSource(prev), numarck.SliceSource(cur)); err != nil {
		b.Fatal(err)
	}
	dec := numarck.StreamDecoder{Config: numarck.StreamConfig{Workers: workers}}
	sink := 0
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = 0
		err := dec.Decode(bytes.NewReader(buf.Bytes()), int64(buf.Len()), numarck.SliceSource(prev), func(vals []float64) error {
			sink += len(vals)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if sink != n {
		b.Fatalf("decoded %d points", sink)
	}
	if workers > runtime.GOMAXPROCS(0) {
		b.ReportMetric(1, "env_limited")
	}
}

func BenchmarkStreamDecode1W64K(b *testing.B) { benchStreamDecode(b, 1) }
func BenchmarkStreamDecode8W64K(b *testing.B) { benchStreamDecode(b, 8) }

func BenchmarkDecode64K(b *testing.B) {
	prev, cur := benchData(1 << 16)
	enc, err := numarck.Encode(prev, cur, numarck.Options{
		ErrorBound: 0.001, IndexBits: 8, Strategy: numarck.Clustering,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * len(cur)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Decode(prev); err != nil {
			b.Fatal(err)
		}
	}
}
