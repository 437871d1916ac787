package server_test

// Error-path coverage for the ingest codecs, centered on the binary
// framing: every malformed request must be rejected with a 4xx — never a
// panic, never a partial ingest (a request is decoded and validated in
// full before any batch reaches a session queue).

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/stream"
)

func testBatches() []stream.Batch {
	return []stream.Batch{
		{
			Session: "s0", Process: "p0", TID: 1, Period: 10000, Seq: 3,
			Objects: []profile.ObjInfo{
				{ID: 0, Heap: true, Name: "heap#0", Base: 0x1000, Size: 4096, Identity: 42, AllocIP: 0x400, TypeID: 2},
				{ID: 1, Name: "", Base: 0x2000, Size: 64, Identity: 7, TypeID: -1},
			},
			Samples: []profile.Sample{
				{TID: 1, IP: 0x404, EA: 0x1010, Latency: 33, Level: 2, Write: true, Cycle: 99, ObjID: 0, Ctx: 7},
				{TID: 1, IP: 0x404, EA: 0x1028, Latency: 12, Cycle: 120, ObjID: -1},
			},
			AppCycles: 1000, OverheadCycles: 10, MemOps: 500,
		},
		{Session: "s1", Period: 1, Seq: 9},
	}
}

// TestBinaryRoundTrip pins the canonical-codec contract: encode → decode
// reproduces the batches exactly, and re-encoding is byte-identical.
func TestBinaryRoundTrip(t *testing.T) {
	want := testBatches()
	var buf bytes.Buffer
	if err := server.EncodeBatches(&buf, server.ContentTypeBinary, want); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	got, err := server.DecodeBatches(bytes.NewReader(first), server.ContentTypeBinary)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("binary round trip mutated batches:\ngot  %+v\nwant %+v", got, want)
	}
	var again bytes.Buffer
	if err := server.EncodeBatches(&again, server.ContentTypeBinary, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Error("binary re-encode not byte-identical")
	}
}

// TestBinaryMatchesNDJSONSemantics cross-checks the two codecs: the same
// batches pushed through NDJSON and through the binary framing must
// decode to identical values.
func TestBinaryMatchesNDJSONSemantics(t *testing.T) {
	in := testBatches()
	var jsonBuf, binBuf bytes.Buffer
	if err := server.EncodeBatches(&jsonBuf, server.ContentTypeNDJSON, in); err != nil {
		t.Fatal(err)
	}
	if err := server.EncodeBatches(&binBuf, server.ContentTypeBinary, in); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := server.DecodeBatches(&jsonBuf, server.ContentTypeNDJSON)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := server.DecodeBatches(&binBuf, server.ContentTypeBinary)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON, fromBin) {
		t.Errorf("ndjson and binary decode to different values:\nndjson %+v\nbinary %+v", fromJSON, fromBin)
	}
}

// TestArenaDecode exercises the pooled decode path directly: the decoded
// batches must equal the plain decode, and Release must be safe to call
// once per batch.
func TestArenaDecode(t *testing.T) {
	want := testBatches()
	var buf bytes.Buffer
	if err := server.EncodeBatches(&buf, server.ContentTypeBinary, want); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	// Two rounds so the second decode reuses a recycled arena.
	for round := 0; round < 2; round++ {
		got, arena, err := server.DecodeBatchesArena(bytes.NewReader(payload), server.ContentTypeBinary)
		if err != nil {
			t.Fatal(err)
		}
		if arena == nil {
			t.Fatal("binary decode returned no arena")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: arena decode differs from input", round)
		}
		for range got {
			arena.Release()
		}
	}
	// NDJSON takes the plain path: nil arena, Release is a no-op.
	var jsonBuf bytes.Buffer
	if err := server.EncodeBatches(&jsonBuf, server.ContentTypeNDJSON, want); err != nil {
		t.Fatal(err)
	}
	got, arena, err := server.DecodeBatchesArena(&jsonBuf, server.ContentTypeNDJSON)
	if err != nil {
		t.Fatal(err)
	}
	if arena != nil {
		t.Error("ndjson decode returned an arena")
	}
	arena.Release()
	if !reflect.DeepEqual(got, want) {
		t.Error("ndjson arena-path decode differs from input")
	}
}

// encodeOne frames a single batch in the binary format.
func encodeOne(t *testing.T, b stream.Batch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := server.EncodeBatches(&buf, server.ContentTypeBinary, []stream.Batch{b}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryDecodeErrors drives the decoder through each malformed-frame
// class; every one must produce a descriptive error, never a panic or an
// oversized allocation.
func TestBinaryDecodeErrors(t *testing.T) {
	valid := encodeOne(t, testBatches()[0])
	le := binary.LittleEndian

	corrupt := func(mutate func(b []byte) []byte) []byte {
		cp := append([]byte(nil), valid...)
		return mutate(cp)
	}
	cases := []struct {
		name    string
		payload []byte
		errHas  string
	}{
		{"truncated header", valid[:40], "truncated header"},
		{"truncated body", valid[:len(valid)-13], "truncated body"},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), "bad magic"},
		{"oversized frame length", corrupt(func(b []byte) []byte {
			le.PutUint32(b[4:], 1<<30)
			return b
		}), "oversized frame"},
		{"oversized session string", corrupt(func(b []byte) []byte {
			le.PutUint32(b[8:], 1<<20)
			return b
		}), "oversized session"},
		{"oversized object table", corrupt(func(b []byte) []byte {
			le.PutUint32(b[60:], 1<<24)
			return b
		}), "oversized object table"},
		{"sample count exceeds frame", corrupt(func(b []byte) []byte {
			le.PutUint32(b[64:], 1<<20)
			return b
		}), "exceed frame length"},
		{"count/length disagreement", corrupt(func(b []byte) []byte {
			// One sample fewer than the frame carries: trailing bytes.
			le.PutUint32(b[64:], le.Uint32(b[64:])-1)
			return b
		}), "disagrees with counts"},
		{"mid-stream codec switch", append(append([]byte(nil), valid...),
			[]byte("{\"Session\":\"s\",\"Period\":1}\n")...), "frame 1"},
		{"ndjson spliced after frame", func() []byte {
			var jsonBuf bytes.Buffer
			if err := server.EncodeBatches(&jsonBuf, server.ContentTypeNDJSON, testBatches()); err != nil {
				t.Fatal(err)
			}
			return append(append([]byte(nil), valid...), jsonBuf.Bytes()...)
		}(), "frame 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := server.DecodeBatches(bytes.NewReader(tc.payload), server.ContentTypeBinary)
			if err == nil {
				t.Fatal("malformed frame accepted")
			}
			if !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("error %q does not mention %q", err, tc.errHas)
			}
		})
	}
}

// TestServerRejectsMalformedBinary posts each malformed-request class at
// a live server: all must yield 4xx with zero batches ingested — decode
// and validation errors may never leave a request prefix in the analyzer.
func TestServerRejectsMalformedBinary(t *testing.T) {
	an, err := stream.New(nil, stream.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(an, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	valid := encodeOne(t, testBatches()[0])
	noSession := encodeOne(t, stream.Batch{Period: 100, Seq: 1})
	cases := []struct {
		name    string
		payload []byte
	}{
		{"truncated frame", valid[:len(valid)-5]},
		{"oversized header", func() []byte {
			cp := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint32(cp[4:], 1<<31-1)
			return cp
		}()},
		{"mid-stream codec switch", append(append([]byte(nil), valid...), []byte("not a frame")...)},
		{"empty request, zero frames", nil},
		{"empty-batch frame without session", noSession},
		// The invalid frame rides second: the valid first frame must not
		// be ingested either (atomicity of one request).
		{"valid frame then invalid", append(append([]byte(nil), valid...), noSession...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/samples", server.ContentTypeBinary, bytes.NewReader(tc.payload))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode < 400 || resp.StatusCode > 499 {
				t.Fatalf("status %d, want 4xx", resp.StatusCode)
			}
			srv.Flush()
			if got := an.Sessions(); len(got) != 0 {
				t.Fatalf("partial ingest: analyzer has sessions %+v", got)
			}
		})
	}

	// Positive control: an empty batch with a session is the push
	// protocol's empty-stream case and must be accepted.
	resp, err := http.Post(ts.URL+"/v1/samples", server.ContentTypeBinary,
		bytes.NewReader(encodeOne(t, stream.Batch{Session: "empty", Period: 100})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("empty batch with session: %d, want 202", resp.StatusCode)
	}
}

// batchesTotal reads structslim_batches_total from the server's metrics.
func batchesTotal(t *testing.T, h http.Handler) uint64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "structslim_batches_total "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("metrics carry no structslim_batches_total")
	return 0
}

// TestServerRejectsGobIngest: gob is the /v1/snapshot format only; a
// sample POST in it is refused with 400, the error names the two ingest
// content types, and nothing reaches the analyzer.
func TestServerRejectsGobIngest(t *testing.T) {
	an, err := stream.New(nil, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(an, server.Config{})
	defer srv.Drain()
	h := srv.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/samples", bytes.NewReader([]byte{0x0d, 0xff, 0x81, 0x02}))
	req.Header.Set("Content-Type", server.ContentTypeGob)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("gob POST: status %d, want 400", rec.Code)
	}
	for _, ct := range []string{server.ContentTypeBinary, server.ContentTypeNDJSON} {
		if !strings.Contains(rec.Body.String(), ct) {
			t.Errorf("error %q does not name %s", rec.Body.String(), ct)
		}
	}
	srv.Flush()
	if n := batchesTotal(t, h); n != 0 || len(an.Sessions()) != 0 {
		t.Fatalf("gob POST ingested: %d batches, sessions %+v", n, an.Sessions())
	}
}

// repeatReader streams unit over and over until n bytes have been read,
// so an oversized body never has to exist in memory.
type repeatReader struct {
	unit []byte
	off  int
	n    int64
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.n {
		p = p[:r.n]
	}
	k := 0
	for k < len(p) {
		c := copy(p[k:], r.unit[r.off:])
		k += c
		r.off = (r.off + c) % len(r.unit)
	}
	r.n -= int64(k)
	return k, nil
}

// TestServerCapsRequestBody: a sample POST longer than the 64 MiB body
// cap is refused with 413 and ingests nothing, whether it is one endless
// NDJSON stream or many binary frames that are each within the frame
// limit.
func TestServerCapsRequestBody(t *testing.T) {
	const bodyCap = 64 << 20
	batch := stream.Batch{
		Session: "s", Period: 1000,
		Objects: []profile.ObjInfo{{ID: 0, Name: "o", Base: 0x1000, Size: 4096, Identity: 1, TypeID: -1}},
	}
	// NDJSON: one small batch per line, space-padded to 64 KiB so the
	// decoded request stays small while the body grows past the cap.
	var line bytes.Buffer
	if err := server.EncodeBatches(&line, server.ContentTypeNDJSON, []stream.Batch{batch}); err != nil {
		t.Fatal(err)
	}
	ndjsonUnit := append(bytes.TrimRight(line.Bytes(), "\n"), bytes.Repeat([]byte(" "), 64<<10-line.Len())...)
	ndjsonUnit = append(ndjsonUnit, '\n')
	// Binary: ~4 KiB frames, far below the frame limit. The bytes go into
	// a maximal session string rather than samples: the decoder keeps
	// every frame of a request, and a string costs its length once, while
	// the sample slab's regrowth would cost several times the body.
	binaryUnit := server.AppendBatchBinary(nil, &stream.Batch{
		Session: strings.Repeat("s", 4096), Period: 1000,
	})

	for _, tc := range []struct {
		ct   string
		unit []byte
	}{
		{server.ContentTypeNDJSON, ndjsonUnit},
		{server.ContentTypeBinary, binaryUnit},
	} {
		t.Run(tc.ct, func(t *testing.T) {
			an, err := stream.New(nil, stream.Config{})
			if err != nil {
				t.Fatal(err)
			}
			srv := server.New(an, server.Config{})
			defer srv.Drain()
			h := srv.Handler()

			// Whole units only, so every byte up to the cap decodes cleanly
			// and the cap alone decides the outcome.
			units := int64(bodyCap/len(tc.unit) + 2)
			body := &repeatReader{unit: tc.unit, n: units * int64(len(tc.unit))}
			req := httptest.NewRequest(http.MethodPost, "/v1/samples", body)
			req.Header.Set("Content-Type", tc.ct)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("over-cap body: status %d, want 413: %.200s", rec.Code, rec.Body.String())
			}
			srv.Flush()
			if n := batchesTotal(t, h); n != 0 || len(an.Sessions()) != 0 {
				t.Fatalf("over-cap body ingested: %d batches, sessions %+v", n, an.Sessions())
			}
		})
	}
}
