package main

import (
	"bytes"
	"os"
	"path/filepath"
	"time"

	"numarck"
	"numarck/internal/bitpack"
	"numarck/internal/checkpoint"
	"numarck/internal/chunk"
	"numarck/internal/core"
	"numarck/internal/obs"
	"numarck/internal/rawio"
)

// ladderPairs caps how many of a workload's transitions the codec
// ladder measures.
const ladderPairs = 8

// timer collects the durations of repeated calls of one kind.
type timer struct {
	ns []float64
}

// time runs fn and records how long it took.
func (t *timer) time(fn func() error) error {
	t0 := time.Now()
	err := fn()
	t.ns = append(t.ns, float64(time.Since(t0)))
	return err
}

// perPoint returns the median call time divided by n points, in ns.
func (t *timer) perPoint(n int) float64 { return median(t.ns) / float64(n) }

// stageNs returns the total time of one obs stage in a snapshot.
func stageNs(s obs.Snapshot, name string) float64 {
	for _, st := range s.Stages {
		if st.Name == name {
			return float64(st.TotalNs)
		}
	}
	return 0
}

// codecLadder measures the codec layers one at a time on a workload's
// own transitions (pairs of previous and current state) and fills the core.*,
// bitpack.*, chunk.*, checkpoint.format and rawio metrics. Each layer is
// called through its public functions on the output of the layer below,
// so a rung's number is explained by the rungs under it plus a named
// overhead. dir is a scratch directory for the rawio rung.
func codecLadder(m metrics, pairs [][2][]float64, opt numarck.Options, dir string) error {
	pairs = pairs[:min(len(pairs), ladderPairs)]
	n := len(pairs[0][0])
	total := float64(len(pairs) * n)

	var encode, decode, pack, unpack, marshal, unmarshal, inmemEnc, inmemDec timer
	var marshalFull, unmarshalFull, streamEnc, streamDec timer
	rec := numarck.NewRecorder()
	streamRec := numarck.NewRecorder()
	exact := 0
	var streamWall time.Duration
	var buf bytes.Buffer
	for k, pair := range pairs {
		prev, cur := pair[0], pair[1]

		var enc *numarck.Encoded
		err := encode.time(func() (err error) {
			enc, err = numarck.Encode(prev, cur, numarck.WithRecorder(opt, rec))
			return err
		})
		if err != nil {
			return err
		}
		exact += len(enc.Exact)
		if err := decode.time(func() error { _, err := enc.Decode(prev); return err }); err != nil {
			return err
		}

		var packed []byte
		if err := pack.time(func() (err error) { packed, err = bitpack.Pack(enc.Indices, indexBits); return err }); err != nil {
			return err
		}
		if err := unpack.time(func() error { _, err := bitpack.Unpack(packed, n, indexBits); return err }); err != nil {
			return err
		}

		var raw []byte
		if err := marshal.time(func() (err error) { raw, err = checkpoint.MarshalDelta("v", k, enc); return err }); err != nil {
			return err
		}
		if err := unmarshal.time(func() error { _, _, _, err := checkpoint.UnmarshalDelta(raw); return err }); err != nil {
			return err
		}
		// The in-memory path over the same v2 bytes is the baseline of
		// the two chunk.stream_over_inmem ratios.
		err = inmemEnc.time(func() error {
			e, err := core.Encode(prev, cur, opt)
			if err != nil {
				return err
			}
			raw, err = checkpoint.MarshalDeltaV2("v", k, e, 0)
			return err
		})
		if err != nil {
			return err
		}
		err = inmemDec.time(func() error {
			_, _, d, err := checkpoint.UnmarshalDeltaV2(raw)
			if err != nil {
				return err
			}
			_, err = d.Decode(prev)
			return err
		})
		if err != nil {
			return err
		}

		if err := marshalFull.time(func() (err error) { raw, err = checkpoint.MarshalFull("v", k, cur); return err }); err != nil {
			return err
		}
		if err := unmarshalFull.time(func() error { _, _, _, err := checkpoint.UnmarshalFull(raw); return err }); err != nil {
			return err
		}

		buf.Reset()
		t0 := time.Now()
		err = streamEnc.time(func() error {
			_, err := chunk.EncodeDeltaV2(&buf, "v", k, chunk.SliceSource(prev), chunk.SliceSource(cur), opt, chunk.Config{Obs: streamRec})
			return err
		})
		if err != nil {
			return err
		}
		err = streamDec.time(func() error {
			dr, err := checkpoint.OpenDeltaV2(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				return err
			}
			return chunk.DecodeDeltaV2(dr, chunk.SliceSource(prev), chunk.Config{Obs: streamRec}, func([]float64) error { return nil })
		})
		if err != nil {
			return err
		}
		streamWall += time.Since(t0)
	}

	m.set("core.encode_ns_per_point", encode.perPoint(n))
	m.set("core.decode_ns_per_point", decode.perPoint(n))
	snap := rec.Snapshot()
	m.set("core.ratio_ns_per_point", stageNs(snap, "ratio")/total)
	m.set("core.table_ns_per_point", stageNs(snap, "table")/total)
	m.set("core.assign_ns_per_point", stageNs(snap, "assign")/total)
	m.set("core.incompressible_share", float64(exact)/total)
	m.set("bitpack.pack_ns_per_point", pack.perPoint(n))
	m.set("bitpack.unpack_ns_per_point", unpack.perPoint(n))
	m.set("checkpoint.marshal_delta_ns_per_point", marshal.perPoint(n))
	m.set("checkpoint.unmarshal_delta_ns_per_point", unmarshal.perPoint(n))
	m.set("checkpoint.marshal_full_mb_per_s", 8*float64(n)/1e6/(median(marshalFull.ns)/1e9))
	m.set("checkpoint.unmarshal_full_mb_per_s", 8*float64(n)/1e6/(median(unmarshalFull.ns)/1e9))
	m.set("chunk.encode_stream_ns_per_point", streamEnc.perPoint(n))
	m.set("chunk.decode_stream_ns_per_point", streamDec.perPoint(n))
	m.set("chunk.stream_over_inmem_encode", median(streamEnc.ns)/median(inmemEnc.ns))
	m.set("chunk.stream_over_inmem_decode", median(streamDec.ns)/median(inmemDec.ns))
	workers := float64(streamRec.Snapshot().Gauges["workers"])
	if workers > 0 && streamWall > 0 {
		m.set("chunk.queue_wait_share", stageNs(streamRec.Snapshot(), "queue-wait")/(workers*float64(streamWall)))
	}

	// One short pass per other strategy, on the first two transitions.
	for _, s := range []numarck.Strategy{numarck.EqualWidth, numarck.LogScale, core.EqualFrequency} {
		var t timer
		o := opt
		o.Strategy = s
		for _, pair := range pairs[:min(len(pairs), 2)] {
			if err := t.time(func() error { _, err := numarck.Encode(pair[0], pair[1], o); return err }); err != nil {
				return err
			}
		}
		m.set("core.encode_ns_per_point."+s.String(), t.perPoint(n))
	}

	// rawio: what the daemon does with a spooled request body.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spool := filepath.Join(dir, "ladder.f64")
	if err := rawio.WriteFile(spool, pairs[0][0]); err != nil {
		return err
	}
	defer os.Remove(spool)
	var read timer
	for i := 0; i < 5; i++ {
		if err := read.time(func() error { _, err := rawio.ReadFile(spool); return err }); err != nil {
			return err
		}
	}
	m.set("rawio.read_mb_per_s", 8*float64(n)/1e6/(median(read.ns)/1e9))
	return nil
}
