package crawler

import (
	"bytes"
	"testing"
)

// FuzzReadResult checks the checkpoint parser never panics and that
// accepted checkpoints re-serialize and re-parse consistently.
func FuzzReadResult(f *testing.F) {
	f.Add("P {\"id\":\"a\",\"name\":\"n\",\"fields\":[\"name\"]}\nE a b\nD a\nD b\n")
	f.Add("")
	f.Add("D x\n")
	f.Add("E a b\n")
	f.Add("Q nope\n")
	// Torn tails: a final line without its newline is dropped, not parsed.
	f.Add("D x")
	f.Add("P {\"id\":\"a\",\"name\":\"n\"}\nD b")
	f.Add("E a b\nE a")
	f.Fuzz(func(t *testing.T, data string) {
		res, err := loadResult(bytes.NewBufferString(data))
		if err != nil {
			return // rejected: fine
		}
		var buf bytes.Buffer
		if err := WriteResult(&buf, res); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		again, err := loadResult(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(again.Profiles) != len(res.Profiles) ||
			len(again.Discovered) != len(res.Discovered) ||
			len(again.Edges) != len(res.Edges) {
			t.Fatalf("checkpoint not stable: %+v vs %+v", again.Stats, res.Stats)
		}
	})
}
