package memo

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"

	"tsxhpc/internal/runner"
)

// Hooks for the external tests (package memo_test), which use the helper
// package memotest and so cannot live in package memo.
var (
	SealEntry   = sealEntry
	EntryPath   = (*Store).path
	WrapPayload = wrapPayload
	PayloadOf   = payloadOf
)

// wrapPayload returns an entry image for key and v's type around an
// arbitrary payload, with a matching length and checksum, so tests can
// reach the payload decoder with bytes the encoder never wrote.
func wrapPayload(key runner.Key, v any, payload []byte) []byte {
	b := appendChunk(append([]byte(nil), magic[:]...), string(key))
	b = appendChunk(b, TypeSig(reflect.TypeOf(v)))
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// payloadOf returns the payload of a well-formed entry image.
func payloadOf(img []byte) []byte {
	_, rest, _ := readChunk(img[len(magic):])
	_, rest, _ = readChunk(rest)
	return rest[8:]
}
