package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDiskEntry writes arbitrary bytes where the entry for key would live
// and reopens the store over them. OpenDisk must neither panic nor fail,
// and the file must end up in exactly one of two states: indexed under the
// key it names, with Get returning exactly the body and metadata its
// checksum covers, or removed.
func FuzzDiskEntry(f *testing.F) {
	const key = "sha256:k1"
	e := Entry{Body: []byte(`{"assignment":{}}`), Meta: []byte(`{"spec":{}}`)}
	env := diskEnvelope{Format: diskFormat, Key: key, Sum: envelopeSum(e), Body: e.Body, Meta: e.Meta}
	valid, err := json.Marshal(env)
	if err != nil {
		f.Fatal(err)
	}
	flip := env
	flip.Sum = "0" + env.Sum[1:]
	if flip.Sum == env.Sum {
		flip.Sum = "1" + env.Sum[1:]
	}
	flipped, err := json.Marshal(flip)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(key, valid)
	f.Add(key, valid[:len(valid)/2])
	f.Add(key, flipped)
	f.Add("sha256:k2", valid) // the envelope names a different key than its file
	f.Add(key, []byte{})

	f.Fuzz(func(t *testing.T, key string, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, fileName(key))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDisk(dir)
		if err != nil {
			t.Fatalf("OpenDisk: %v", err)
		}
		defer d.Close()

		var env diskEnvelope
		keep := json.Unmarshal(data, &env) == nil && env.Format == diskFormat &&
			env.Key != "" && env.Key == key &&
			env.Sum == envelopeSum(Entry{Body: env.Body, Meta: env.Meta})
		keys := d.Keys()
		if !keep {
			if len(keys) != 0 {
				t.Fatalf("%q: invalid file indexed under %q", data, keys)
			}
			if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("%q: invalid file not removed (stat: %v)", data, err)
			}
			return
		}
		if len(keys) != 1 || keys[0] != key {
			t.Fatalf("%q: valid file indexed under %q, want [%q]", data, keys, key)
		}
		got, ok, err := d.Get(key)
		if err != nil || !ok {
			t.Fatalf("%q: Get = ok=%v err=%v, want a hit", data, ok, err)
		}
		if !bytes.Equal(got.Body, env.Body) || !bytes.Equal(got.Meta, env.Meta) || envelopeSum(got) != env.Sum {
			t.Fatalf("%q: Get returned body %q meta %q, want %q %q", data, got.Body, got.Meta, env.Body, env.Meta)
		}
	})
}
