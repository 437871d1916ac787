package server_test

import (
	"bytes"
	"testing"
	"unicode/utf8"

	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/stream"
)

// FuzzIngestDecode drives both wire codecs with arbitrary bytes: the
// decoder must never panic, and any input it accepts must round-trip —
// decode → encode → decode → encode yields byte-identical encodings, so
// a relayed (proxied, spooled) batch stream is bit-stable. Accepted
// binary input is additionally relayed through the NDJSON codec and
// back: the two codecs must carry the same values.
func FuzzIngestDecode(f *testing.F) {
	seedBatches := []stream.Batch{
		{
			Session: "s0", Process: "p0", TID: 1, Period: 10000, Seq: 3,
			Objects: []profile.ObjInfo{
				{ID: 0, Heap: true, Name: "heap#0", Base: 0x1000, Size: 4096, Identity: 42, AllocIP: 0x400, TypeID: 2},
			},
			Samples: []profile.Sample{
				{TID: 1, IP: 0x404, EA: 0x1010, Latency: 33, Level: 2, Write: true, Cycle: 99, ObjID: 0, Ctx: 7},
				{TID: 1, IP: 0x404, EA: 0x1028, Latency: 12, Cycle: 120, ObjID: -1},
			},
			AppCycles: 1000, OverheadCycles: 10, MemOps: 500,
		},
		{Session: "s1", Period: 1},
	}
	for _, ct := range []string{server.ContentTypeNDJSON, server.ContentTypeBinary} {
		var buf bytes.Buffer
		if err := server.EncodeBatches(&buf, ct, seedBatches); err != nil {
			f.Fatal(err)
		}
		f.Add(ct, buf.Bytes())
	}
	f.Add(server.ContentTypeNDJSON, []byte("\n  \n{\"Session\":\"s\",\"Period\":1}\n\n"))
	f.Add(server.ContentTypeNDJSON, []byte("not json\n"))
	f.Add(server.ContentTypeGob, []byte{0xff, 0x00, 0x01}) // not an ingest codec
	f.Add(server.ContentTypeBinary, []byte("SSB1truncated"))
	f.Add("text/unknown", []byte{})

	f.Fuzz(func(t *testing.T, ct string, data []byte) {
		bs, err := server.DecodeBatches(bytes.NewReader(data), ct)
		if err != nil {
			return // rejected input: only no-panic is required
		}
		var enc1 bytes.Buffer
		if err := server.EncodeBatches(&enc1, ct, bs); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		bs2, err := server.DecodeBatches(bytes.NewReader(enc1.Bytes()), ct)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		var enc2 bytes.Buffer
		if err := server.EncodeBatches(&enc2, ct, bs2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Errorf("encode→decode→encode not byte-identical for %s", ct)
		}
		if ct == server.ContentTypeBinary && validUTF8(bs) {
			// Relay through NDJSON and back: a batch stream spooled in one
			// codec and replayed in the other must stay bit-stable. JSON
			// strings are UTF-8 (encoding/json replaces invalid bytes), so
			// binary input with other string bytes cannot make the trip.
			var viaJSON bytes.Buffer
			if err := server.EncodeBatches(&viaJSON, server.ContentTypeNDJSON, bs); err != nil {
				t.Fatalf("ndjson encode of accepted binary input failed: %v", err)
			}
			bs3, err := server.DecodeBatches(bytes.NewReader(viaJSON.Bytes()), server.ContentTypeNDJSON)
			if err != nil {
				t.Fatalf("ndjson decode of relayed batches failed: %v", err)
			}
			var enc3 bytes.Buffer
			if err := server.EncodeBatches(&enc3, server.ContentTypeBinary, bs3); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc1.Bytes(), enc3.Bytes()) {
				t.Error("binary→ndjson→binary relay not byte-identical")
			}
		}
	})
}

// validUTF8 reports whether every string the batches carry is UTF-8.
func validUTF8(bs []stream.Batch) bool {
	for i := range bs {
		if !utf8.ValidString(bs[i].Session) || !utf8.ValidString(bs[i].Process) {
			return false
		}
		for _, o := range bs[i].Objects {
			if !utf8.ValidString(o.Name) {
				return false
			}
		}
	}
	return true
}
