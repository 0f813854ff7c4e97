package numarck_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"numarck"
)

// ExampleEncode compresses one checkpoint transition and shows the
// point-wise error guarantee.
func ExampleEncode() {
	// Previous and current checkpoint of a toy simulation: every point
	// grows by exactly 1 %.
	prev := make([]float64, 1000)
	cur := make([]float64, 1000)
	for i := range prev {
		prev[i] = 100 + float64(i)
		cur[i] = prev[i] * 1.01
	}

	enc, err := numarck.Encode(prev, cur, numarck.Options{
		ErrorBound: 0.001, // 0.1 %
		IndexBits:  8,
		Strategy:   numarck.Clustering,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	rec, err := enc.Decode(prev)
	if err != nil {
		fmt.Println(err)
		return
	}

	worst := 0.0
	for i := range cur {
		trueRatio := (cur[i] - prev[i]) / prev[i]
		recRatio := (rec[i] - prev[i]) / prev[i]
		if d := math.Abs(recRatio - trueRatio); d > worst {
			worst = d
		}
	}
	fmt.Printf("incompressible: %.0f%%\n", enc.Gamma()*100)
	fmt.Printf("bound holds: %v\n", worst <= 0.001)
	// Output:
	// incompressible: 0%
	// bound holds: true
}

// ExampleCreateStore writes a chained checkpoint store and restarts
// from it.
func ExampleCreateStore() {
	dir, err := os.MkdirTemp("", "numarck-example-")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)

	st, err := numarck.CreateStore(filepath.Join(dir, "ck"), numarck.Options{
		ErrorBound: 0.001,
		IndexBits:  8,
		Strategy:   numarck.Clustering,
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	// Three iterations: the first is stored losslessly, the rest as
	// NUMARCK deltas.
	w := numarck.NewWriter(st, 0)
	data := []float64{10, 20, 30, 40}
	for iter := 0; iter < 3; iter++ {
		if iter > 0 {
			for i := range data {
				data[i] *= 1.005
			}
		}
		if _, err := w.Append(iter, map[string][]float64{"temp": data}); err != nil {
			fmt.Println(err)
			return
		}
	}

	rec, err := st.Restart("temp", 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("restarted %d points, first = %.2f\n", len(rec), rec[0])
	// Output:
	// restarted 4 points, first = 10.10
}

// ExampleStreamEncoder encodes a transition out-of-core in fixed-size
// chunks and reconstructs it with the streaming decoder. Sources here
// are in-memory slices; numarck.OpenRaw streams files the same way.
func ExampleStreamEncoder() {
	prev := make([]float64, 1000)
	cur := make([]float64, 1000)
	for i := range prev {
		prev[i] = 100 + float64(i)
		cur[i] = prev[i] * 1.01 // every point grows by 1 %
	}

	enc := numarck.StreamEncoder{
		Opt:    numarck.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: numarck.EqualWidth},
		Config: numarck.StreamConfig{ChunkPoints: 256}, // 4 chunks of <= 256 points
	}
	var ckpt bytes.Buffer
	res, err := enc.Encode(&ckpt, "temp", 1, numarck.SliceSource(prev), numarck.SliceSource(cur))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("encoded %d points in %d chunks\n", res.N, res.ChunkCount)

	// Streaming decode: chunks arrive in point order.
	var rec []float64
	dec := numarck.StreamDecoder{}
	err = dec.Decode(bytes.NewReader(ckpt.Bytes()), int64(ckpt.Len()), numarck.SliceSource(prev), func(vals []float64) error {
		rec = append(rec, vals...)
		return nil
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	worst := 0.0
	for i := range cur {
		trueRatio := (cur[i] - prev[i]) / prev[i]
		recRatio := (rec[i] - prev[i]) / prev[i]
		if d := math.Abs(recRatio - trueRatio); d > worst {
			worst = d
		}
	}
	fmt.Printf("reconstructed %d points, bound holds: %v\n", len(rec), worst <= 0.001)
	// Output:
	// encoded 1000 points in 4 chunks
	// reconstructed 1000 points, bound holds: true
}

// ExampleParseStrategy converts CLI strings to strategies.
func ExampleParseStrategy() {
	s, err := numarck.ParseStrategy("log-scale")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(s)
	// Output:
	// log-scale
}

// ExampleStreamEncoder_tuning shows the three tuning knobs of the
// streaming pipeline and how to read the resolved run shape back from
// the result: ChunkPoints sets the window size, Workers the number of
// chunks in flight, and BudgetBytes a hard cap on chunk buffer memory
// (workers are shrunk first, then chunk size). None of them changes a
// byte of the output. The same knobs are the numarck CLI's -chunk,
// -workers, and -budget flags; PERF.md walks through choosing them.
func ExampleStreamEncoder_tuning() {
	prev := make([]float64, 20000)
	cur := make([]float64, 20000)
	for i := range prev {
		prev[i] = 100 + float64(i%50)
		cur[i] = prev[i] * 1.01
	}

	const budget = 256 << 10 // 256 KiB of buffer memory, enforced
	enc := numarck.StreamEncoder{
		Opt: numarck.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: numarck.EqualWidth},
		Config: numarck.StreamConfig{
			ChunkPoints: 4096,
			Workers:     4,
			BudgetBytes: budget,
		},
	}
	var ckpt bytes.Buffer
	res, err := enc.Encode(&ckpt, "temp", 1, numarck.SliceSource(prev), numarck.SliceSource(cur))
	if err != nil {
		fmt.Println(err)
		return
	}
	// Four workers' buffers would blow the budget, so the resolver
	// trades parallelism for memory before touching the chunk size.
	fmt.Printf("resolved shape: %d worker(s), %d-point chunks, %d chunks\n", res.Workers, res.ChunkPoints, res.ChunkCount)
	fmt.Printf("buffer footprint: %d bytes (budget %d)\n", res.PeakBufferBytes, budget)
	fmt.Printf("table input: %d ratios\n", res.TableInputTotal)
	// Output:
	// resolved shape: 1 worker(s), 4096-point chunks, 5 chunks
	// buffer footprint: 155648 bytes (budget 262144)
	// table input: 20000 ratios
}
