package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"avgloc/internal/cache"
	"avgloc/internal/scenario"
)

// uploadPayload is the JSON of a chunk upload as a worker sends it.
func uploadPayload(tb testing.TB, ch *scenario.Chunk) []byte {
	tb.Helper()
	payload, err := json.Marshal(completeRequest{WorkerID: "w1", ChunkID: "chunk-1", Chunk: ch})
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

// sealedUpload frames a chunk upload as a worker sends it.
func sealedUpload(tb testing.TB, ch *scenario.Chunk) []byte {
	return cache.Seal(wireMagic, uploadPayload(tb, ch))
}

// legacyUpload wraps a chunk upload in the checksummed {"sum","payload"}
// JSON object that framed the protocol before it shared the stores'
// magic + sha256 framing.
func legacyUpload(tb testing.TB, ch *scenario.Chunk) []byte {
	tb.Helper()
	payload := uploadPayload(tb, ch)
	sum := sha256.Sum256(payload)
	body, err := json.Marshal(struct {
		Sum     string          `json:"sum"`
		Payload json.RawMessage `json:"payload"`
	}{hex.EncodeToString(sum[:]), payload})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FuzzCompleteUpload drives a chunk upload through every decoder the
// coordinator runs on it — the wireMagic framing, the strict JSON decode,
// the chunk check against its lease, the merge — and asserts none of them
// panics. Seeds: a sealed upload from a real RunChunk, a truncated one, one
// with a flipped checksum, one carrying an over-long trial, the two bare
// payloads, one whose Meta names another graph, and one in the legacy
// {"sum","payload"} framing.
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
	flipped[len(wireMagic)] ^= 1
	f.Add(flipped)
	long := sealedUpload(f, overlong(ch))
	f.Add(long)
	for _, body := range [][]byte{good, long} {
		payload, err := cache.Open(wireMagic, body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add(sealedUpload(f, regraphed(ch)))
	f.Add(legacyUpload(f, ch))
	n, err := pairSpec.Normalize()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		payload, err := cache.Open(wireMagic, body)
		if err != nil {
			// Nearly every mutation breaks the checksum. Read the input as
			// the payload of an intact frame instead, so the decoders
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

// TestCompleteRefusesLegacyEnvelope: an upload in the legacy
// {"sum","payload"} framing, checksum intact, is a 400 from
// /fleet/v1/complete and moves no chunk counter. A worker built before
// the protocol shared the stores' framing is refused loudly rather than
// half-understood.
func TestCompleteRefusesLegacyEnvelope(t *testing.T) {
	ch, err := scenario.RunChunk(&pairSpec, 0, 2, 4, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(fastConfig())
	c.register("legacy")
	resp, err := http.Post(newHandlerServer(t, c)+"/fleet/v1/complete", "application/json", bytes.NewReader(legacyUpload(t, ch)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("legacy upload: HTTP %d, want 400", resp.StatusCode)
	}
	st := c.Stats()
	st.Workers = nil
	if !reflect.DeepEqual(st, Stats{}) {
		t.Fatalf("legacy upload moved chunk counters: %+v", st)
	}
}
