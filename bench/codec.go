package main

import (
	"bytes"
	"fmt"
	"time"

	"numarck"
	"numarck/internal/checkpoint"
	"numarck/internal/chunk"
	"numarck/internal/core"
)

// codecInstance is codec_large: one caller, no disk. A write op streams
// one transition through numarck.StreamEncoder into that transition's
// reused buffer; a read op streams the buffer back through
// numarck.StreamDecoder onto the previous state.
type codecInstance struct {
	out    *outcome
	sc     scale
	opt    numarck.Options
	dir    string
	states [][]float64
	bufs   []bytes.Buffer
	recon  []float64
	// stored and user are the bytes kept and the user bytes written by
	// every write op so far.
	stored, user int64
}

func setupCodec(e env, dir string, out *outcome) (instance, error) {
	c := &codecInstance{
		out: out, sc: e.sc, dir: dir,
		opt:    numarck.Options{ErrorBound: errorBound, IndexBits: indexBits, Strategy: numarck.Clustering},
		states: e.gen.series(1, smooth, e.sc.codecPoints, e.sc.codecTransitions+1),
		bufs:   make([]bytes.Buffer, e.sc.codecTransitions),
		recon:  make([]float64, 0, e.sc.codecPoints),
	}
	// The first pass over every transition pins the streamed bytes to
	// the in-memory encoder's.
	for k := range c.bufs {
		if err := c.encode(k); err != nil {
			return nil, err
		}
		enc, err := core.Encode(c.states[k], c.states[k+1], c.opt)
		if err != nil {
			return nil, err
		}
		want, err := checkpoint.MarshalDeltaV2("v", k, enc, 0)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(c.bufs[k].Bytes(), want) {
			out.op(fmt.Errorf("codec_large: transition %d: streamed bytes differ from the in-memory encoding", k))
		}
	}
	return c, nil
}

// encode is the write op on transition k.
func (c *codecInstance) encode(k int) error {
	c.bufs[k].Reset()
	_, err := numarck.StreamEncoder{Opt: c.opt}.Encode(&c.bufs[k], "v", k,
		numarck.SliceSource(c.states[k]), numarck.SliceSource(c.states[k+1]))
	return err
}

// decode is the read op on transition k; the state lands in c.recon.
func (c *codecInstance) decode(k int) error {
	c.recon = c.recon[:0]
	raw := c.bufs[k].Bytes()
	return numarck.StreamDecoder{}.Decode(bytes.NewReader(raw), int64(len(raw)),
		numarck.SliceSource(c.states[k]), c.collect)
}

func (c *codecInstance) collect(vals []float64) error {
	c.recon = append(c.recon, vals...)
	return nil
}

// tracedEncode is the write op as layer calls.
func (c *codecInstance) tracedEncode(tr *tracer, k int) error {
	op := tr.start(nil, harnessLayer, "write")
	defer op.end()
	c.bufs[k].Reset()
	sp := tr.start(op, "chunk", "encode_stream")
	_, err := chunk.EncodeDeltaV2(&c.bufs[k], "v", k,
		chunk.SliceSource(c.states[k]), chunk.SliceSource(c.states[k+1]), c.opt, chunk.Config{})
	sp.end()
	return err
}

// tracedDecode is the read op as layer calls.
func (c *codecInstance) tracedDecode(tr *tracer, k int) error {
	op := tr.start(nil, harnessLayer, "read")
	defer op.end()
	c.recon = c.recon[:0]
	raw := c.bufs[k].Bytes()
	sp := tr.start(op, "checkpoint.format", "open_delta_v2")
	dr, err := checkpoint.OpenDeltaV2(bytes.NewReader(raw), int64(len(raw)))
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.start(op, "chunk", "decode_stream")
	err = chunk.DecodeDeltaV2(dr, chunk.SliceSource(c.states[k]), chunk.Config{}, c.collect)
	sp.end()
	return err
}

func (c *codecInstance) round(rs *roundStats, tr *tracer) {
	userBytes := 8 * c.sc.codecPoints
	for i := 0; i < c.sc.codecWrites; i++ {
		k := i % len(c.bufs)
		t0 := time.Now()
		var err error
		if tr == nil {
			err = c.encode(k)
		} else {
			err = c.tracedEncode(tr, k)
		}
		rs.write(time.Since(t0), userBytes)
		c.out.op(err)
		c.stored += int64(c.bufs[k].Len())
		c.user += int64(userBytes)
	}
	for i := 0; i < c.sc.codecReads; i++ {
		k := i % len(c.bufs)
		t0 := time.Now()
		var err error
		if tr == nil {
			err = c.decode(k)
		} else {
			err = c.tracedDecode(tr, k)
		}
		rs.read(time.Since(t0), userBytes)
		c.out.op(err)
		// The first read of each transition in a round is checked
		// against the true state, outside the timed interval.
		if err == nil && i < len(c.bufs) {
			c.out.verified(fmt.Sprintf("codec_large: transition %d", k),
				stepErrOverBound(c.recon, c.states[k+1], c.states[k], errorBound))
		}
	}
}

func (c *codecInstance) finish(m metrics) {
	m.set("stored_bytes_per_user_byte", float64(c.stored)/float64(c.user))
}

func (c *codecInstance) layers(m metrics, _ *tracer) {
	c.out.check(codecLadder(m, chainPairs(c.states), c.opt, c.dir))
}

func (c *codecInstance) close() {}

// chainPairs returns the transitions of consecutive states.
func chainPairs(states [][]float64) [][2][]float64 {
	var pairs [][2][]float64
	for k := 0; k+1 < len(states); k++ {
		pairs = append(pairs, [2][]float64{states[k], states[k+1]})
	}
	return pairs
}
