package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Codec serialises one value kind for Files; the container around each
// payload adds the schema revision, an integrity key and a checksum.
type Codec[V any] interface {
	// Version names the encoded schema revision. It is written into every
	// file header and compared on read: a mismatch reads as absent, so
	// files written under an older layout self-invalidate instead of
	// decoding into garbage.
	Version() string
	// Encode appends v's encoding to dst and returns the extended slice.
	Encode(dst []byte, v V) ([]byte, error)
	// Decode parses one encoded value.
	Decode(data []byte) (V, error)
}

// Files is a small durable map from caller-chosen names to encoded
// values, one file per entry in a versioned, checksummed container
// written through a temp file and an atomic rename: readers only ever
// see complete files, and a process crash mid-write leaves at worst an
// orphaned temp file (swept on the next open), never a torn entry. There
// is no fsync, so the guarantee covers process crashes, not power loss.
// Entries are looked up by name, Put reports its error, and List
// enumerates what survived a restart. The integrity key echoed into each
// container is derived from the entry name, so a renamed or cross-linked
// file fails decode.
type Files[V any] struct {
	dir   string
	codec Codec[V]
}

// filesSuffix marks named-entry files; anything else in the directory
// (orphaned temp files aside) is left alone. Renaming it would orphan
// existing journals.
const filesSuffix = ".acrj"

// NewFiles opens (creating if needed) a named-entry store rooted at dir,
// sweeping any orphaned temp files from a crashed writer.
func NewFiles[V any](dir string, codec Codec[V]) (*Files[V], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: opening files store: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning files store: %w", err)
	}
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), tmpPrefix) {
			os.Remove(filepath.Join(dir, ent.Name())) // crashed writer's leftovers
		}
	}
	return &Files[V]{dir: dir, codec: codec}, nil
}

// validName restricts entry names to filesystem-safe characters so a
// name can never escape the store's directory or collide with the temp
// prefix.
func validName(name string) bool {
	if name == "" || strings.HasPrefix(name, ".") {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// nameKey derives the container integrity key from an entry name: two
// independent FNV-1a streams (distinct offset bases) over the same
// bytes, so both key words depend on every byte of the name.
func nameKey(name string) Key {
	h1 := uint64(14695981039346656037)
	h2 := uint64(12638153115695167455)
	for i := 0; i < len(name); i++ {
		c := uint64(name[i])
		h1 = (h1 ^ c) * 1099511628211
		h2 = (h2 ^ c) * 1099511628211
	}
	return Key{Hi: h1, Lo: h2}
}

func (f *Files[V]) path(name string) string {
	return filepath.Join(f.dir, name+filesSuffix)
}

// Put encodes v and atomically installs it as name's entry, replacing
// any previous value. Failures are returned: a journal write that cannot
// land is something the caller must know.
func (f *Files[V]) Put(name string, v V) error {
	if !validName(name) {
		return fmt.Errorf("store: invalid entry name %q", name)
	}
	buf, err := encodeEntry(f.codec, nameKey(name), v)
	if err != nil {
		return fmt.Errorf("store: encoding entry %q: %w", name, err)
	}
	tmp, err := os.CreateTemp(f.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: writing entry %q: %w", name, err)
	}
	tmpName := tmp.Name()
	if _, err = tmp.Write(buf); err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err == nil {
		err = os.Rename(tmpName, f.path(name))
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: writing entry %q: %w", name, err)
	}
	return nil
}

// Get reads and decodes name's entry. Any failure — absent, truncated,
// corrupted, stale schema, renamed file — reports absence; damaged files
// are removed so the slot heals on the next Put.
func (f *Files[V]) Get(name string) (V, bool) {
	var zero V
	if !validName(name) {
		return zero, false
	}
	data, err := os.ReadFile(f.path(name))
	if err != nil {
		return zero, false
	}
	v, ok := decodeEntry(f.codec, nameKey(name), data)
	if !ok {
		os.Remove(f.path(name))
		return zero, false
	}
	return v, true
}

// Delete removes name's entry; deleting an absent entry is not an error.
func (f *Files[V]) Delete(name string) error {
	if !validName(name) {
		return fmt.Errorf("store: invalid entry name %q", name)
	}
	if err := os.Remove(f.path(name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: deleting entry %q: %w", name, err)
	}
	return nil
}

// List returns the store's entry names in sorted order, so callers that
// replay the entries do so deterministically.
func (f *Files[V]) List() ([]string, error) {
	ents, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing files store: %w", err)
	}
	names := make([]string, 0, len(ents))
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, filesSuffix) {
			continue
		}
		names = append(names, strings.TrimSuffix(name, filesSuffix))
	}
	sort.Strings(names)
	return names, nil
}

// Dir returns the store's root directory.
func (f *Files[V]) Dir() string { return f.dir }

// ---- container format ----
//
// All integers little-endian:
//
//	magic    [4]byte  "acrs"
//	format   uint16   container layout revision (formatVersion)
//	version  uvarint-prefixed string — the codec's schema revision
//	key      2×uint64 (Hi, Lo; must match the entry name's nameKey)
//	paylen   uint32
//	checksum uint64   FNV-1a over the payload
//	payload  paylen bytes — the codec's encoding

const (
	tmpPrefix     = ".tmp-"
	formatVersion = 1
)

var magic = [4]byte{'a', 'c', 'r', 's'}

// encodeEntry serialises one value into the container layout.
func encodeEntry[V any](codec Codec[V], k Key, v V) ([]byte, error) {
	version := codec.Version()
	buf := make([]byte, 0, 64+len(version))
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, formatVersion)
	buf = binary.AppendUvarint(buf, uint64(len(version)))
	buf = append(buf, version...)
	buf = binary.LittleEndian.AppendUint64(buf, k.Hi)
	buf = binary.LittleEndian.AppendUint64(buf, k.Lo)
	payload, err := codec.Encode(nil, v)
	if err != nil {
		return nil, err
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint64(buf, fnv1a(payload))
	return append(buf, payload...), nil
}

// decodeEntry parses one container file, validating the magic, format
// revision, schema version, key echo and payload checksum. Any mismatch
// is reported as absence, never a partial decode.
func decodeEntry[V any](codec Codec[V], k Key, data []byte) (V, bool) {
	var zero V
	if len(data) < 4+2 || [4]byte(data[:4]) != magic {
		return zero, false
	}
	data = data[4:]
	if binary.LittleEndian.Uint16(data) != formatVersion {
		return zero, false
	}
	data = data[2:]
	vlen, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < vlen {
		return zero, false
	}
	if string(data[n:n+int(vlen)]) != codec.Version() {
		return zero, false // stale schema revision: self-invalidate
	}
	data = data[n+int(vlen):]
	if len(data) < 8+8+4+8 {
		return zero, false
	}
	if binary.LittleEndian.Uint64(data) != k.Hi || binary.LittleEndian.Uint64(data[8:]) != k.Lo {
		return zero, false // renamed or cross-linked file
	}
	paylen := binary.LittleEndian.Uint32(data[16:])
	sum := binary.LittleEndian.Uint64(data[20:])
	payload := data[28:]
	if uint32(len(payload)) != paylen || fnv1a(payload) != sum {
		return zero, false // truncated or bit-rotted
	}
	v, err := codec.Decode(payload)
	if err != nil {
		return zero, false
	}
	return v, true
}

// fnv1a is the 64-bit FNV-1a checksum guarding payload integrity —
// the same family the content hashes use, dependency-free and fast.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
