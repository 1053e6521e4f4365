package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ErrCorrupt reports an invalid frame in the *interior* of the log —
// a sealed segment, or a final segment with valid data after the bad
// frame was expected. A torn tail (the crash case) is not an error.
var ErrCorrupt = errors.New("wal: corrupt log")

// ReplayStats summarizes one recovery pass.
type ReplayStats struct {
	Records  uint64 // frames decoded and applied
	Segments int    // segment files visited
	TornTail bool   // final segment ended in an incomplete or bad frame
}

// Replay feeds every committed record in dir, in append order, to fn,
// starting at the newest checkpoint segment: the segments below it are
// never read, and its checkpoint record is not delivered. Replay stops
// cleanly at the first invalid frame of the final segment (the torn
// tail a crash mid-write leaves), so the records delivered are always a
// prefix of the acknowledged commit sequence. An invalid frame anywhere
// else, or anywhere in a checkpoint segment, which is whole before its
// rename, is real corruption and returns ErrCorrupt; fn errors abort
// the replay.
func Replay(dir string, fn func(Record) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := ListSegments(dir)
	if err != nil {
		return stats, err
	}
	c, ok, err := lastCheckpoint(segs)
	if err != nil {
		return stats, err
	}
	if ok {
		segs = segs[c:]
	}
	for i, seg := range segs {
		final := i == len(segs)-1
		torn, err := replaySegment(seg, final, fn, &stats)
		if err != nil {
			return stats, err
		}
		if torn {
			stats.TornTail = true
			break
		}
	}
	return stats, nil
}

// lastCheckpoint returns the position in segs of the newest segment
// that opens with checkpointMagic, reading only that many bytes of each
// segment from the newest down.
func lastCheckpoint(segs []Segment) (int, bool, error) {
	head := make([]byte, len(checkpointMagic))
	for i := len(segs) - 1; i >= 0; i-- {
		if segs[i].Size < int64(len(head)) {
			continue
		}
		f, err := os.Open(segs[i].Path)
		if err != nil {
			return 0, false, err
		}
		_, err = io.ReadFull(f, head)
		f.Close()
		if err != nil {
			return 0, false, err
		}
		if string(head) == checkpointMagic {
			return i, true, nil
		}
	}
	return 0, false, nil
}

// readFrame decodes the frame at data[off:], returning its record and
// the offset after it, or why no valid frame starts there.
func readFrame(data []byte, off int) (Record, int, string) {
	if len(data)-off < frameHeaderSize {
		return Record{}, 0, "truncated frame header"
	}
	// Bounds-check as uint32/int64: on 32-bit platforms int(uint32) can
	// go negative, slipping a corrupt length past the guards into a
	// panicking slice expression.
	u := binary.BigEndian.Uint32(data[off:])
	crc := binary.BigEndian.Uint32(data[off+4:])
	if u == 0 || u > maxRecordBytes || int64(u) > int64(len(data)-off-frameHeaderSize) {
		return Record{}, 0, "frame length out of bounds"
	}
	end := off + frameHeaderSize + int(u)
	payload := data[off+frameHeaderSize : end]
	if crc32.Checksum(payload, crcTable) != crc {
		return Record{}, 0, "frame CRC mismatch"
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err.Error()
	}
	return rec, end, ""
}

// validPrefixLen scans a segment's bytes and returns the length of its
// longest valid prefix: the magic plus every complete, CRC-clean,
// decodable put or delete up to the first invalid frame.
func validPrefixLen(data []byte) int {
	if len(data) < len(segmentMagic) || string(data[:len(segmentMagic)]) != segmentMagic {
		return 0
	}
	off := len(segmentMagic)
	for off < len(data) {
		rec, next, problem := readFrame(data, off)
		if problem != "" || rec.Op == OpCheckpoint {
			break
		}
		off = next
	}
	return off
}

// repairTailSegment truncates a crashed segment to its valid prefix. A
// segment whose header itself is torn is removed outright. A checkpoint
// segment is left as it is: it was whole before its rename, so a bad
// frame in it is corruption for Replay to report, not a tail to cut.
func repairTailSegment(seg Segment) error {
	data, err := os.ReadFile(seg.Path)
	if err != nil {
		return err
	}
	if bytes.HasPrefix(data, []byte(checkpointMagic)) {
		return nil
	}
	valid := validPrefixLen(data)
	if valid < len(segmentMagic) {
		// Even the header is torn (covers the empty file a crash
		// between create and magic write leaves): nothing salvageable.
		return os.Remove(seg.Path)
	}
	if valid == len(data) {
		return nil
	}
	// Fsync the truncation: once a fresh segment opens after this one,
	// a torn tail resurfacing here would read as interior corruption
	// rather than a crash mark.
	f, err := os.OpenFile(seg.Path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(int64(valid)); err != nil {
		return err
	}
	return f.Sync()
}

// replaySegment applies one segment. It reports torn=true when the
// segment ends mid-frame; only a final segment that is no checkpoint
// may do so. A checkpoint segment must end with its closing checkpoint
// record, so one cut short at a frame boundary is refused too.
func replaySegment(seg Segment, final bool, fn func(Record) error, stats *ReplayStats) (torn bool, err error) {
	data, err := os.ReadFile(seg.Path)
	if err != nil {
		return false, err
	}
	stats.Segments++
	checkpoint := bytes.HasPrefix(data, []byte(checkpointMagic))
	bad := func(off int, what string) (bool, error) {
		if final && !checkpoint {
			return true, nil
		}
		return false, fmt.Errorf("%w: segment %s offset %d: %s", ErrCorrupt, seg.Path, off, what)
	}
	if !checkpoint && !bytes.HasPrefix(data, []byte(segmentMagic)) {
		return bad(0, "bad segment header")
	}
	off := len(segmentMagic)
	for off < len(data) {
		rec, next, problem := readFrame(data, off)
		if problem != "" {
			return bad(off, problem)
		}
		if rec.Op == OpCheckpoint {
			if checkpoint && next == len(data) {
				return false, nil
			}
			return bad(off, "checkpoint record out of place")
		}
		if err := fn(rec); err != nil {
			return false, err
		}
		stats.Records++
		off = next
	}
	if checkpoint {
		return bad(off, "checkpoint segment ends without its closing record")
	}
	return false, nil
}
