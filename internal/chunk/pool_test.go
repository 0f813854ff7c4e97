package chunk

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
)

// TestPooledEncodeConcurrent runs encodes of different shapes on
// several goroutines at once, so that each run takes pooled scratch
// another shape left behind and hands its own to the next: every
// strategy, one chunk split over workers and many chunks on the ring,
// budgeted and unbudgeted, through core.Encode and EncodeDeltaV2.
// Every file must equal the one a serial encode of the same input
// wrote before any goroutine started. Under the race detector it also
// checks that no two runs ever share a pooled buffer.
func TestPooledEncodeConcurrent(t *testing.T) {
	type encodeCase struct {
		name string
		run  func() ([]byte, error)
	}
	var cases []encodeCase
	for _, n := range []int{3000, 20000} {
		prev, cur := genPair(n, int64(n)+1)
		for _, strategy := range []core.Strategy{core.EqualWidth, core.LogScale, core.Clustering, core.EqualFrequency} {
			opt := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: strategy}
			cases = append(cases, encodeCase{fmt.Sprintf("n%d/%s/core.Encode", n, strategy), func() ([]byte, error) {
				enc, err := core.Encode(prev, cur, opt)
				if err != nil {
					return nil, err
				}
				return checkpoint.MarshalDeltaV2("v", 2, enc, 0)
			}})
			for _, cfg := range []Config{
				{Workers: 3},                    // one chunk, split over the workers
				{ChunkPoints: 2048, Workers: 3}, // chunks on the ring, ratios cached
				{ChunkPoints: 2048, Workers: 3, BudgetBytes: 2 * 1024 * BytesPerPoint}, // budgeted: no cache, smaller chunks
			} {
				cases = append(cases, encodeCase{fmt.Sprintf("n%d/%s/%+v", n, strategy, cfg), func() ([]byte, error) {
					var buf bytes.Buffer
					_, err := EncodeDeltaV2(&buf, "v", 2, SliceSource(prev), SliceSource(cur), opt, cfg)
					return buf.Bytes(), err
				}})
			}
		}
	}
	want := make([][]byte, len(cases))
	for i, c := range cases {
		raw, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want[i] = raw
	}

	const goroutines, rounds = 4, 2
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*len(cases))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each goroutine walks the cases from its own offset, the
				// odd ones backwards, so concurrent runs differ in shape.
				for k := range cases {
					i := (k + 7*g + 3*r) % len(cases)
					if g%2 == 1 {
						i = len(cases) - 1 - i
					}
					got, err := cases[i].run()
					if err != nil {
						errs <- fmt.Errorf("%s: %w", cases[i].name, err)
					} else if !bytes.Equal(got, want[i]) {
						errs <- fmt.Errorf("%s: concurrent encode differs from the serial one", cases[i].name)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
