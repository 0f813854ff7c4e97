package checkpoint

import (
	"bytes"
	"fmt"

	"numarck/internal/core"
)

// marshalV1 serializes an encoding in the read-only v1 layout (NMRKD1),
// byte for byte what MarshalDelta wrote before every writer emitted
// NMRKD2. It is the reference the read-forever tests compare against;
// no production code writes v1.
func marshalV1(variable string, iteration int, enc *core.Encoded) ([]byte, error) {
	packed, err := enc.PackedIndices()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: pack indices: %w", err)
	}
	payload := make([]byte, 0,
		8*len(enc.BinRatios)+len(packed)+len(enc.Incompressible.Bytes())+8*len(enc.Exact))
	payload = appendFloats(payload, enc.BinRatios)
	payload = append(payload, packed...)
	payload = append(payload, enc.Incompressible.Bytes()...)
	payload = appendFloats(payload, enc.Exact)

	var buf bytes.Buffer
	err = writeFile(&buf, magicDelta, fileHeader{
		Variable:   variable,
		Iteration:  iteration,
		N:          enc.N,
		IndexBits:  enc.Opt.IndexBits,
		ErrorBound: enc.Opt.ErrorBound,
		Strategy:   enc.Opt.Strategy.String(),
		BinCount:   len(enc.BinRatios),
		ExactCount: len(enc.Exact),
	}, payload)
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
