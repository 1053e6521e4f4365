package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Op distinguishes record kinds.
type Op byte

// Record kinds. The zero value is invalid so a zeroed frame can never
// decode as a legitimate operation.
const (
	OpPut    Op = 1
	OpDelete Op = 2
	// OpCheckpoint closes a checkpoint segment (Log.Checkpoint) and
	// carries no table, id or row. Replay starts at the newest
	// checkpoint and reads nothing below it.
	OpCheckpoint Op = 3
)

// Record is one journaled table mutation. Row carries the codec-encoded
// row bytes for OpPut and is empty for OpDelete. Codec names the row's
// codec so replay can recreate a table from its first record, whether
// that is a put in the log or a row of a checkpoint.
type Record struct {
	Op    Op
	Table string
	Codec string
	ID    string
	Row   []byte
}

// Frame layout (big-endian):
//
//	length u32   payload byte count
//	crc    u32   CRC-32C (Castagnoli) of the payload
//	payload:
//	  op    u8
//	  table lenstr (uvarint length + bytes)
//	  codec lenstr
//	  id    lenstr
//	  row   remaining payload bytes (OpPut only)
//
// A frame is valid iff the length fits the remaining file and the CRC
// matches; anything else marks the end of the committed log (torn tail)
// or corruption, depending on where it sits.

const frameHeaderSize = 8

// maxRecordBytes bounds a single frame's payload, mirroring the 64 MiB
// envelope/attachment bounds of the soap.tcp framing: a length field
// beyond it is corruption, not a huge row.
const maxRecordBytes = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

func appendLenStr(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendFrame encodes rec as one framed record at the end of dst.
func appendFrame(dst []byte, rec Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	dst = append(dst, byte(rec.Op))
	dst = appendLenStr(dst, rec.Table)
	dst = appendLenStr(dst, rec.Codec)
	dst = appendLenStr(dst, rec.ID)
	if rec.Op == OpPut {
		dst = append(dst, rec.Row...)
	}
	payload := dst[start+frameHeaderSize:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst
}

func readLenStr(payload []byte) (string, []byte, error) {
	n, used := binary.Uvarint(payload)
	if used <= 0 || n > uint64(len(payload)-used) {
		return "", nil, fmt.Errorf("wal: corrupt record string")
	}
	return string(payload[used : used+int(n)]), payload[used+int(n):], nil
}

// decodePayload parses a CRC-verified payload into a Record.
func decodePayload(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("wal: empty record")
	}
	rec := Record{Op: Op(payload[0])}
	if rec.Op != OpPut && rec.Op != OpDelete && rec.Op != OpCheckpoint {
		return Record{}, fmt.Errorf("wal: unknown record op %d", payload[0])
	}
	rest := payload[1:]
	var err error
	if rec.Table, rest, err = readLenStr(rest); err != nil {
		return Record{}, err
	}
	if rec.Codec, rest, err = readLenStr(rest); err != nil {
		return Record{}, err
	}
	if rec.ID, rest, err = readLenStr(rest); err != nil {
		return Record{}, err
	}
	if rec.Op == OpPut {
		rec.Row = append([]byte(nil), rest...)
	} else if len(rest) != 0 {
		return Record{}, fmt.Errorf("wal: op %d record carries %d trailing bytes", rec.Op, len(rest))
	}
	return rec, nil
}
