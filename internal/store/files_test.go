package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// pairCodec encodes a two-field struct — enough structure to catch
// header/payload framing bugs without depending on higher layers.
type pair struct {
	A uint64
	B string
}

type pairCodec struct{ version string }

func (c pairCodec) Version() string {
	if c.version != "" {
		return c.version
	}
	return "pair-v1"
}

func (pairCodec) Encode(dst []byte, v pair) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, v.A)
	dst = binary.AppendUvarint(dst, uint64(len(v.B)))
	return append(dst, v.B...), nil
}

func (pairCodec) Decode(data []byte) (pair, error) {
	if len(data) < 8 {
		return pair{}, errors.New("short")
	}
	v := pair{A: binary.LittleEndian.Uint64(data)}
	n, used := binary.Uvarint(data[8:])
	if used <= 0 || uint64(len(data)-8-used) != n {
		return pair{}, errors.New("bad string length")
	}
	v.B = string(data[8+used:])
	return v, nil
}

func TestFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFiles[pair](dir, pairCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Get("absent"); ok {
		t.Fatal("Get on empty store returned a value")
	}
	want := pair{A: 7, B: "journal"}
	if err := f.Put("alpha", want); err != nil {
		t.Fatal(err)
	}
	got, ok := f.Get("alpha")
	if !ok || got != want {
		t.Fatalf("Get = %+v, %v; want %+v", got, ok, want)
	}

	// A reopened store sees the same entries: the container survives the
	// encode/decode round trip byte-exactly.
	f2, err := NewFiles[pair](dir, pairCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := f2.Get("alpha"); !ok || got != want {
		t.Fatalf("reopened Get = %+v, %v", got, ok)
	}
}

// TestFilesListSortsAndDeleteIsIdempotent pins that List returns the
// entry names sorted, whatever order they were put in. (Files has no
// Delete: the job journal never removes an entry.)
func TestFilesListSortsAndDeleteIsIdempotent(t *testing.T) {
	f, err := NewFiles[pair](t.TempDir(), pairCodec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := f.Put(name, pair{A: 1}); err != nil {
			t.Fatal(err)
		}
	}
	names, err := f.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"alpha", "mid", "zeta"}) {
		t.Fatalf("List = %v, want sorted", names)
	}
}

func TestFilesRejectsInvalidNames(t *testing.T) {
	f, err := NewFiles[pair](t.TempDir(), pairCodec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", ".hidden", "a/b", "a b", "née"} {
		if err := f.Put(name, pair{}); err == nil {
			t.Errorf("Put(%q) accepted an invalid name", name)
		}
	}
}

func TestFilesDropsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFiles[pair](dir, pairCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Put("alpha", pair{A: 9}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "alpha"+filesSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // corrupt the payload under the checksum
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Get("alpha"); ok {
		t.Fatal("corrupt entry served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not removed from disk")
	}
}

// TestDiskCrashSafety damages an entry on disk in each way a crashed
// writer, bit rot, a schema change or a stray copy can: every damaged
// entry must read as absent, be removed, and heal on the next Put.
func TestDiskCrashSafety(t *testing.T) {
	cases := []struct {
		name string
		// damage turns the valid entry "alpha" (bytes data) into the
		// damaged state; it returns the entry name to read back.
		damage func(dir string, data []byte) (string, error)
		// reader is the codec of the store that reads the damaged entry.
		reader pairCodec
	}{
		{name: "truncated-header", damage: func(dir string, data []byte) (string, error) {
			return "alpha", os.WriteFile(filepath.Join(dir, "alpha"+filesSuffix), data[:3], 0o644)
		}},
		{name: "truncated-payload", damage: func(dir string, data []byte) (string, error) {
			return "alpha", os.WriteFile(filepath.Join(dir, "alpha"+filesSuffix), data[:len(data)-1], 0o644)
		}},
		{name: "flipped-payload-bit", damage: func(dir string, data []byte) (string, error) {
			data[len(data)-1] ^= 0x40
			return "alpha", os.WriteFile(filepath.Join(dir, "alpha"+filesSuffix), data, 0o644)
		}},
		{name: "wrong-magic", damage: func(dir string, data []byte) (string, error) {
			data[0] = 'X'
			return "alpha", os.WriteFile(filepath.Join(dir, "alpha"+filesSuffix), data, 0o644)
		}},
		{name: "empty", damage: func(dir string, data []byte) (string, error) {
			return "alpha", os.WriteFile(filepath.Join(dir, "alpha"+filesSuffix), nil, 0o644)
		}},
		// An entry written under one codec revision must not decode under
		// another, so a layout change can never read stale bytes as garbage.
		{name: "stale-schema-revision", reader: pairCodec{version: "pair-v2"},
			damage: func(string, []byte) (string, error) { return "alpha", nil }},
		// Copying a valid file onto another entry's name must not alias the
		// two entries: the key echoed in the header is the name's.
		{name: "renamed-file", damage: func(dir string, data []byte) (string, error) {
			return "beta", os.WriteFile(filepath.Join(dir, "beta"+filesSuffix), data, 0o644)
		}},
	}
	want := pair{A: 1, B: "x"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := NewFiles[pair](dir, pairCodec{version: "pair-v1"})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Put("alpha", want); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, "alpha"+filesSuffix))
			if err != nil {
				t.Fatal(err)
			}
			name, err := tc.damage(dir, data)
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewFiles[pair](dir, tc.reader)
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := f.Get(name); ok {
				t.Fatalf("damaged entry %q served %+v", name, v)
			}
			path := filepath.Join(dir, name+filesSuffix)
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("damaged entry was not removed: %v", err)
			}
			// The slot heals: rewrite and read back.
			if err := f.Put(name, want); err != nil {
				t.Fatal(err)
			}
			if got, ok := f.Get(name); !ok || got != want {
				t.Fatalf("after rewrite: got %+v, %v", got, ok)
			}
		})
	}
}

func TestFilesSweepsOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, tmpPrefix+"leftover")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, []byte("crash debris"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFiles[pair](dir, pairCodec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned temp file survived NewFiles")
	}
}
