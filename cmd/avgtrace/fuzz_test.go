package main

import "testing"

// FuzzRender drives arbitrary bytes through the whole reader: header
// dispatch, readTrace, analyze and every renderer. Whatever the input, it
// either renders or returns an error; it never panics.
func FuzzRender(f *testing.F) {
	f.Add([]byte(syntheticArtifact(f)))
	f.Add([]byte(`{"type":"span","name":"x"}`))
	f.Add([]byte("not json"))
	f.Add([]byte(`{"type":"load","name":"x"}` + "\n"))
	f.Add([]byte(`{"type":"trace","name":"t","start":"2026-01-01T00:00:00Z"}` + "\n" +
		`{"type":"future-thing","name":"x"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := render(data, true, true)
		if err == nil && out == "" {
			t.Fatal("render succeeded with empty output")
		}
	})
}
