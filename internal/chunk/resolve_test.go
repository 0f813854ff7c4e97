package chunk

import (
	"errors"
	"runtime"
	"testing"

	"numarck/internal/checkpoint"
)

func TestResolveConfigDefaults(t *testing.T) {
	r, err := ResolveConfig(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Config.ChunkPoints != checkpoint.DefaultChunkPoints {
		t.Fatalf("ChunkPoints = %d, want default %d", r.Config.ChunkPoints, checkpoint.DefaultChunkPoints)
	}
	if r.Config.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers = %d, want GOMAXPROCS %d", r.Config.Workers, runtime.GOMAXPROCS(0))
	}
	want := int64(r.Config.Workers) * int64(r.Config.ChunkPoints) * BytesPerPoint
	if r.PeakBufferBytes != want {
		t.Fatalf("PeakBufferBytes = %d, want %d", r.PeakBufferBytes, want)
	}
}

func TestResolveConfigBudgetShrinks(t *testing.T) {
	// A budget that holds exactly two minimal chunks: workers shrink
	// first, then chunk size.
	budget := int64(2 * minChunkPoints * BytesPerPoint)
	r, err := ResolveConfig(Config{ChunkPoints: 4096, Workers: 8, BudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakBufferBytes > budget {
		t.Fatalf("resolved peak %d exceeds budget %d", r.PeakBufferBytes, budget)
	}
	if r.Config.ChunkPoints < minChunkPoints {
		t.Fatalf("ChunkPoints shrunk below floor: %d", r.Config.ChunkPoints)
	}
	// The plan ResolveConfig reports must be exactly what Encode runs
	// with: re-resolving the resolved config is a fixed point.
	r2, err := ResolveConfig(r.Config)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Config != r.Config || r2.PeakBufferBytes != r.PeakBufferBytes {
		t.Fatalf("resolve not a fixed point: %+v vs %+v", r2, r)
	}
}

func TestResolveConfigImpossibleBudget(t *testing.T) {
	_, err := ResolveConfig(Config{BudgetBytes: 64})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("tiny budget error = %v, want ErrBudget", err)
	}
}

func TestResolveConfigRejectsNegative(t *testing.T) {
	if _, err := ResolveConfig(Config{Workers: -1}); err == nil {
		t.Fatal("negative Workers accepted")
	}
}
