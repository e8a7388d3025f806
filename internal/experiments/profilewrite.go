package experiments

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
)

// WriteProfile is the inverse of ReadProfileSummary for the subset of the
// pprof wire format the reader consumes: one sample type, one flat sample per
// frame, each frame backed by its own location → line → function chain. It
// exists so tests can synthesize byte-real profiles instead of committing
// opaque binaries, and so tools can re-emit an aggregated summary as a
// profile other pprof consumers open.
// Output is gzipped, matching what runtime/pprof writes.
func WriteProfile(path, sampleType, unit string, frames []Frame) error {
	data, err := MarshalProfile(sampleType, unit, frames)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// MarshalProfile renders the gzipped profile bytes WriteProfile persists.
func MarshalProfile(sampleType, unit string, frames []Frame) ([]byte, error) {
	// String table: index 0 must be the empty string (proto3 pprof contract).
	strs := []string{""}
	strIdx := map[string]int64{"": 0}
	intern := func(s string) int64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = int64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	typeIdx, unitIdx := intern(sampleType), intern(unit)

	var body []byte
	// Field 1: sample_type {type, unit}.
	var vt []byte
	vt = appendTag(vt, 1, 0)
	vt = appendUvarint(vt, uint64(typeIdx))
	vt = appendTag(vt, 2, 0)
	vt = appendUvarint(vt, uint64(unitIdx))
	body = appendMessage(body, 1, vt)

	for i, fr := range frames {
		id := uint64(i + 1)
		// Field 2: sample {location_id, value}.
		var sm []byte
		sm = appendTag(sm, 1, 0)
		sm = appendUvarint(sm, id)
		sm = appendTag(sm, 2, 0)
		sm = appendUvarint(sm, uint64(fr.Value))
		body = appendMessage(body, 2, sm)

		// Field 4: location {id, line{function_id}}.
		var line []byte
		line = appendTag(line, 1, 0)
		line = appendUvarint(line, id)
		var loc []byte
		loc = appendTag(loc, 1, 0)
		loc = appendUvarint(loc, id)
		loc = appendMessage(loc, 4, line)
		body = appendMessage(body, 4, loc)

		// Field 5: function {id, name}.
		var fn []byte
		fn = appendTag(fn, 1, 0)
		fn = appendUvarint(fn, id)
		fn = appendTag(fn, 2, 0)
		fn = appendUvarint(fn, uint64(intern(fr.Name)))
		body = appendMessage(body, 5, fn)
	}

	// Field 6: string_table, in index order.
	for _, s := range strs {
		body = appendMessage(body, 6, []byte(s))
	}

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(body); err != nil {
		return nil, fmt.Errorf("experiments: marshal profile: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("experiments: marshal profile: %w", err)
	}
	return buf.Bytes(), nil
}

func appendTag(b []byte, field, wire int) []byte {
	return appendUvarint(b, uint64(field)<<3|uint64(wire))
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func appendMessage(b []byte, field int, msg []byte) []byte {
	b = appendTag(b, field, 2)
	b = appendUvarint(b, uint64(len(msg)))
	return append(b, msg...)
}
