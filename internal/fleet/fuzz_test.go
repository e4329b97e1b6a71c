package fleet

import (
	"bytes"
	"testing"

	"avgloc/internal/scenario"
)

// sealedUpload renders a chunk upload as a worker sends it.
func sealedUpload(tb testing.TB, ch *scenario.Chunk) []byte {
	tb.Helper()
	body, err := sealEnvelope(completeRequest{WorkerID: "w1", ChunkID: "chunk-1", Chunk: ch})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FuzzCompleteUpload drives a chunk upload through every decoder the
// coordinator runs on it — the envelope, the strict JSON decode, the chunk
// check against its lease, the merge — and asserts none of them panics.
// Seeds: a sealed upload from a real RunChunk, a truncated one, one with a
// flipped checksum, one carrying an over-long trial, and the two bare
// payloads.
// The upload answers the lease of checkSpec's only chunk, so the check and
// the merge must agree: an upload merges exactly when it passes the check.
func FuzzCompleteUpload(f *testing.F) {
	ch, err := scenario.RunChunk(&checkSpec, 0, 0, checkSpec.Trials, scenario.Options{Parallelism: 1})
	if err != nil {
		f.Fatal(err)
	}
	good := sealedUpload(f, ch)
	f.Add(good)
	f.Add(good[:len(good)/2])
	flipped := bytes.Clone(good)
	i := bytes.Index(flipped, []byte(`"sum":"`)) + len(`"sum":"`)
	flipped[i] ^= 1
	f.Add(flipped)
	long := sealedUpload(f, overlong(ch))
	f.Add(long)
	for _, body := range [][]byte{good, long} {
		payload, err := openEnvelope(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		payload, err := openEnvelope(body)
		if err != nil {
			// Nearly every mutation breaks the checksum. Read the input as
			// the payload of an intact envelope instead, so the decoders
			// behind the checksum see mutated JSON too.
			payload = body
		}
		var req completeRequest
		if err := scenario.DecodeStrict(payload, &req); err != nil || req.Chunk == nil {
			return
		}
		checkErr := req.Chunk.Check(0, 0, checkSpec.Trials)
		_, mergeErr := scenario.MergeChunks(&checkSpec, []*scenario.Chunk{req.Chunk})
		if (checkErr == nil) != (mergeErr == nil) {
			t.Fatalf("chunk check (%v) and merge (%v) disagree", checkErr, mergeErr)
		}
	})
}
