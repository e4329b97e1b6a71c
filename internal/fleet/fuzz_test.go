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
// flipped checksum, one carrying an over-long trial, the two bare
// payloads, and one whose Meta names another graph.
// The upload answers the lease of pairSpec's second chunk; the row's first
// chunk is a real one. In either order of the two, the chunk checker and
// the merge must agree: the row merges exactly when both chunks pass.
func FuzzCompleteUpload(f *testing.F) {
	first, err := scenario.RunChunk(&pairSpec, 0, 0, 2, scenario.Options{Parallelism: 1})
	if err != nil {
		f.Fatal(err)
	}
	ch, err := scenario.RunChunk(&pairSpec, 0, 2, 4, scenario.Options{Parallelism: 1})
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
	f.Add(sealedUpload(f, regraphed(ch)))
	n, err := pairSpec.Normalize()
	if err != nil {
		f.Fatal(err)
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
		leases := map[*scenario.Chunk][2]int{first: {0, 2}, req.Chunk: {2, 4}}
		for _, order := range [][]*scenario.Chunk{{first, req.Chunk}, {req.Chunk, first}} {
			check, err := n.ChunkChecker()
			if err != nil {
				t.Fatal(err)
			}
			var checkErr error
			for _, c := range order {
				if checkErr == nil {
					checkErr = check.Accept(c, 0, leases[c][0], leases[c][1])
				}
			}
			_, mergeErr := scenario.MergeChunks(n, order)
			if (checkErr == nil) != (mergeErr == nil) {
				t.Fatalf("chunk check (%v) and merge (%v) disagree", checkErr, mergeErr)
			}
		}
	})
}
