package coo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// v2Bytes serializes t in the v2 layout.
func v2Bytes(t *testing.T, ten *Tensor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ten.WriteBinV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBinV2RoundTrip(t *testing.T) {
	ten := randomTensor(t, []uint64{9, 5, 7}, 400, 11)
	ten.Sort(1)
	ten.Dedup()
	got, err := ReadBin(bytes.NewReader(v2Bytes(t, ten)))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ten) {
		t.Fatal("v2 round trip mismatch")
	}
	if !got.IsSorted() {
		t.Fatal("round-tripped tensor lost sort order")
	}
	b := v2Bytes(t, ten)
	if flags, nwin := binary.LittleEndian.Uint32(b[12:]), binary.LittleEndian.Uint64(b[24:]); flags != binFlagSorted || nwin != 0 {
		t.Fatalf("sorted tensor wrote flags %#x and %d window entries, want the sorted flag and none", flags, nwin)
	}
}

func TestBinV2UnsortedRoundTrip(t *testing.T) {
	// Unsorted tensors are valid v2 files; they just carry no window index.
	ten := MustNew([]uint64{4, 4}, 0)
	ten.Append([]uint32{3, 1}, 1)
	ten.Append([]uint32{0, 2}, 2)
	ten.Append([]uint32{2, 0}, 3)
	b := v2Bytes(t, ten)
	if flags := binary.LittleEndian.Uint32(b[12:]); flags&binFlagSorted != 0 {
		t.Fatalf("unsorted tensor wrote sorted flag %#x", flags)
	}
	if nwin := binary.LittleEndian.Uint64(b[24:]); nwin != 0 {
		t.Fatalf("unsorted tensor wrote %d windows", nwin)
	}
	got, err := ReadBin(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ten) {
		t.Fatal("unsorted v2 round trip mismatch")
	}
}

func TestBinV2EmptyTensor(t *testing.T) {
	ten := MustNew([]uint64{6, 3, 2}, 0)
	for name, b := range map[string][]byte{
		"v1": func() []byte {
			var buf bytes.Buffer
			if err := ten.WriteBin(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}(),
		"v2": v2Bytes(t, ten),
	} {
		got, err := ReadBin(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.NNZ() != 0 || !got.Equal(ten) {
			t.Fatalf("%s: empty round trip mismatch", name)
		}
	}
}

// TestBinV2Truncation: a v2 file cut short at any byte must produce an
// error, never a panic or a silently short tensor. Covers every section
// boundary (header, window index, each index column, padding, values) by
// covering every prefix length.
func TestBinV2Truncation(t *testing.T) {
	ten := randomTensor(t, []uint64{7, 5, 3}, 60, 12)
	ten.Sort(1)
	ten.Dedup()
	full := v2Bytes(t, ten)
	for n := 0; n < len(full); n++ {
		if _, err := ReadBin(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes did not error", n, len(full))
		}
	}
	// LoadBin additionally knows the file size and must reject the header
	// before reading any payload.
	dir := t.TempDir()
	path := filepath.Join(dir, "trunc.sptn")
	if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBin(path); err == nil {
		t.Fatal("LoadBin accepted a half file")
	}
}

// corruptHeader builds a valid v2 byte image and lets the caller patch the
// header before parsing.
func corruptHeader(t *testing.T, patch func(b []byte)) error {
	t.Helper()
	ten := randomTensor(t, []uint64{5, 4}, 30, 13)
	ten.Sort(1)
	ten.Dedup()
	b := v2Bytes(t, ten)
	patch(b)
	_, err := ReadBin(bytes.NewReader(b))
	return err
}

func TestBinV2HostileHeaders(t *testing.T) {
	cases := map[string]func(b []byte){
		"bad magic":     func(b []byte) { b[0] = 'X' },
		"bad version":   func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 9) },
		"zero order":    func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 0) },
		"huge order":    func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 200) },
		"unknown flags": func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 0xff) },
		"absurd nnz":    func(b []byte) { binary.LittleEndian.PutUint64(b[16:], maxBinNNZ+1) },
		"nwin over nnz": func(b []byte) { binary.LittleEndian.PutUint64(b[24:], 1<<40) },
		"zero dim":      func(b []byte) { binary.LittleEndian.PutUint64(b[32:], 0) },
		"window index eats the payload": func(b []byte) {
			// nwin <= nnz passes the count check; skipping that many
			// entries leaves the columns short.
			binary.LittleEndian.PutUint64(b[24:], binary.LittleEndian.Uint64(b[16:]))
		},
		"sorted flag on unsorted data": func(b []byte) {
			// Swap the first two distinct coordinates' mode-0 indices; the
			// data no longer matches the declared order. (Order 2, nnz>=2:
			// mode-0 column starts at 32 + 2*8 + nwin*8.)
			nwin := binary.LittleEndian.Uint64(b[24:])
			off := 32 + 2*8 + int(nwin)*8
			i0 := binary.LittleEndian.Uint32(b[off:])
			last := off + 4*(int(binary.LittleEndian.Uint64(b[16:]))-1)
			binary.LittleEndian.PutUint32(b[off:], binary.LittleEndian.Uint32(b[last:]))
			binary.LittleEndian.PutUint32(b[last:], i0)
		},
	}
	for name, patch := range cases {
		err := corruptHeader(t, patch)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v is not a *FormatError", name, err)
		}
	}
}

// TestBinV2HostileNNZNoOOM: a tiny file claiming a plausible-but-huge nnz
// must be rejected by the size check (LoadBin) or run out of input after
// reading only the bytes present (ReadBin) — never allocate the claimed
// payload up front.
func TestBinV2HostileNNZNoOOM(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(binMagic)
	for _, v := range []uint32{binVersion2, 1, 0} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	// 2^30 non-zeros declared, ~12 GiB of payload, in a 48-byte file.
	binary.Write(&buf, binary.LittleEndian, uint64(1<<30))
	binary.Write(&buf, binary.LittleEndian, uint64(0))
	binary.Write(&buf, binary.LittleEndian, uint64(100))
	b := buf.Bytes()

	if _, err := ReadBin(bytes.NewReader(b)); err == nil {
		t.Fatal("ReadBin accepted a hostile nnz claim")
	}
	path := filepath.Join(t.TempDir(), "hostile.sptn")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadBin(path)
	if err == nil {
		t.Fatal("LoadBin accepted a hostile nnz claim")
	}
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Section != "header" {
		t.Fatalf("want the header size check to reject, got %v", err)
	}
}

// TestBinV1V2Oracle: the two formats are different encodings of the same
// tensor — writing either and reading back must agree exactly, and a v1
// file converted through the heap is bit-identical to a direct v2 write.
func TestBinV1V2Oracle(t *testing.T) {
	ten := randomTensor(t, []uint64{11, 6, 4}, 300, 14)
	ten.Sort(1)
	ten.Dedup()
	dir := t.TempDir()
	v1 := filepath.Join(dir, "x.bin")
	v2 := filepath.Join(dir, "x.sptn")
	if err := ten.SaveBin(v1); err != nil {
		t.Fatal(err)
	}
	fromV1, err := LoadBin(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fromV1.SaveBinV2(v2); err != nil {
		t.Fatal(err)
	}
	fromV2, err := LoadBin(v2)
	if err != nil {
		t.Fatal(err)
	}
	if !fromV1.Equal(ten) || !fromV2.Equal(ten) {
		t.Fatal("v1 -> v2 conversion changed the tensor")
	}
	direct := v2Bytes(t, ten)
	onDisk, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, onDisk) {
		t.Fatal("converted v2 file differs from a direct v2 write")
	}
}
