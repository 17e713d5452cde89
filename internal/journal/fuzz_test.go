package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzJournalOpen feeds arbitrary file contents to Open, the reader a
// resumed run trusts. Open must never panic. When it accepts a file, one
// more Record, a Close and a reopen must add exactly one record that reads
// back unchanged: a torn tail was cut at a clean line boundary. A
// malformed line that a newline-terminated record follows cannot be a torn
// tail, so that file must be refused as corrupt.
func FuzzJournalOpen(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"key":"a","val":1}` + "\n"))
	f.Add([]byte(`{"key":"a","val":1}` + "\n" + `{"key":"b","val":[1,2]}` + "\n" + `{"key":"c","va`))
	f.Add([]byte("\n  \n" + `{"key":"a","val":{"x":"y"}}` + "\r\n"))
	f.Add([]byte(`{"key":"","val":1}` + "\n"))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path)
		if err == nil {
			n := j.Len()
			key := "probe"
			for _, ok := j.Raw(key); ok; _, ok = j.Raw(key) {
				key += "+"
			}
			if err := j.Record(key, 42); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := Open(path)
			if err != nil {
				t.Fatalf("reopen after a record on an accepted journal: %v", err)
			}
			raw, ok := again.Raw(key)
			if again.Len() != n+1 || !ok || string(raw) != "42" {
				t.Fatalf("reopen holds %d records (want %d) and %q = %s", again.Len(), n+1, key, raw)
			}
			again.Close()
		}

		// One line of the input, then an intact record: a malformed
		// line in the middle of a journal must be refused.
		line := bytes.ReplaceAll(data, []byte("\n"), nil)
		var rec record
		if len(bytes.TrimSpace(line)) == 0 || (json.Unmarshal(line, &rec) == nil && rec.Key != "") {
			return
		}
		mid := filepath.Join(dir, "mid.jsonl")
		body := append(append(line, '\n'), `{"key":"after","val":1}`+"\n"...)
		if err := os.WriteFile(mid, body, 0o644); err != nil {
			t.Fatal(err)
		}
		if j, err := Open(mid); err == nil {
			j.Close()
			t.Fatalf("malformed line %q before an intact record was accepted", line)
		} else if !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("malformed line refused with %v, want a corruption error", err)
		}
	})
}
