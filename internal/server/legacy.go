package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"uucs/internal/atomicfile"
	"uucs/internal/protocol"
)

// Legacy state: JSON op lines. v2-era builds wrote journals of pure
// JSON lines with no header; builds of journal format 3 framed uploads
// but wrote registrations and testcase batches as JSON lines; legacy
// snapshots are JSON lines opened by a "meta" version 2 line. Replica
// journals, being concatenated bootstraps, can hold such lines
// anywhere. This file is the only reader of them: when recordScanner
// meets a state file's first record that is not a frame, convertLegacy
// rewrites the rest of the file as frames of the same ops, payloads in
// the text they were written in, so replay, ScanStateOps and the
// cluster merge read frames and nothing else, and a file of frames
// only is walked once.

// A legacy snapshot opens with a "meta" line of stateVersion, the only
// version there is.
const (
	opMeta       = "meta"
	stateVersion = 2
)

// legacyOp is one JSON state line.
type legacyOp struct {
	Op       string             `json:"op"`
	Ver      int                `json:"ver,omitempty"`
	ID       string             `json:"id,omitempty"`
	Nonce    string             `json:"nonce,omitempty"`
	Snapshot *protocol.Snapshot `json:"snapshot,omitempty"`
	LastSeq  uint64             `json:"last_seq,omitempty"`
	Seq      uint64             `json:"seq,omitempty"`
	Payload  string             `json:"payload,omitempty"`
}

// convertLegacy returns a state file's bytes converted to frames only,
// given that data[from] starts the first record that is not a frame
// and rec records precede it. data[:from] is copied verbatim; from
// there on frames are copied, blank separators dropped and each JSON
// line converted (appendLegacyRecord), in record order. tolerateTail
// marks the active journal, whose final record a crash mid-append may
// have torn: a frame the file ends inside, or a final line with no
// newline that is not valid JSON, is dropped. A torn line that is valid
// JSON converts like any other, so if it then fails to apply it poisons
// the load, as it would with its newline. On failure, bad names the
// file and the failing record's number and offset in data.
func convertLegacy(data []byte, from, rec int, file string, tolerateTail bool) (conv []byte, bad replayRec, err error) {
	out := append(make([]byte, 0, len(data)), data[:from]...)
	for pos := from; pos < len(data); {
		rest := data[pos:]
		switch rest[0] {
		case '\n', '\r', ' ', '\t':
			pos++ // blank separators between JSON lines
			continue
		}
		rec++
		bad = replayRec{file: file, rec: rec, pos: pos}
		if rest[0] == protocol.FrameMagic {
			n, err := protocol.FrameLen(rest)
			switch {
			case err == nil:
				out = append(out, rest[:n]...)
				pos += n
				continue
			case tolerateTail && errors.Is(err, protocol.ErrShortFrame):
				return out, bad, nil
			}
			return nil, bad, err
		}
		line, torn := rest, tolerateTail
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
			line, torn = rest[:nl], false
		}
		pos += min(len(line)+1, len(rest))
		var op legacyOp
		err := json.Unmarshal(line, &op)
		if err != nil && torn {
			return out, bad, nil
		}
		if err == nil {
			out, err = appendLegacyRecord(out, &op)
		}
		if err != nil {
			return nil, bad, err
		}
	}
	return out, bad, nil
}

// writeConverted writes a legacy state file's conversion over it.
func writeConverted(path string, conv []byte) error {
	return atomicfile.Write(path, func(f *os.File) error {
		_, err := f.Write(conv)
		return err
	})
}

// appendLegacyRecord appends the frames of one JSON op: the format
// header for a "meta" line, a registration record, text testcase
// records cut at testcase ends, or a text results frame. An
// upload keeps its ClientID and Seq; an aggregate (no ClientID) carries
// the identity the cluster merge has always given it,
// aggregateHash("", payload) as Nonce and its chunk index as Count, and
// is cut at run ends only if it outgrows a frame. Any other op is an
// error.
func appendLegacyRecord(dst []byte, op *legacyOp) ([]byte, error) {
	switch op.Op {
	case opMeta:
		if op.Ver != stateVersion {
			return dst, fmt.Errorf("unsupported state version %d", op.Ver)
		}
		return append(dst, journalHeader...), nil
	case opClient:
		return appendClientRecord(dst, op.ID, op.Nonce, op.Snapshot, op.LastSeq)
	case opTestcases:
		payload := borrowBytes(op.Payload)
		return appendTestcaseRecords(dst, payload, recordEnds(payload, "end"))
	case opResults:
		if op.ID != "" {
			return protocol.AppendFrame(dst, protocol.Message{Type: protocol.TypeResults, ClientID: op.ID, Seq: op.Seq, Payload: op.Payload})
		}
		var sum [8]byte
		binary.LittleEndian.PutUint64(sum[:], aggregateHash("", op.Payload))
		payload := borrowBytes(op.Payload)
		return appendChunked(dst, payload, recordEnds(payload, "endrun"), func(part int, chunk string) protocol.Message {
			return protocol.Message{Type: protocol.TypeResults, Seq: op.Seq, Nonce: string(sum[:]), Count: part, Payload: chunk}
		})
	default:
		return dst, fmt.Errorf("unknown op %q", op.Op)
	}
}

// appendTestcaseRecords appends text-encoded testcases as testcases
// frames, the form builds of journal formats 4 and 5 journaled them in
// and the one a converted JSON batch keeps; ends holds each testcase's
// end offset in payload.
func appendTestcaseRecords(dst, payload []byte, ends []int) ([]byte, error) {
	return appendChunked(dst, payload, ends, func(_ int, chunk string) protocol.Message {
		return protocol.Message{Type: protocol.TypeTestcases, Payload: chunk}
	})
}

// recordEnds returns the end offset of every text record in payload —
// just past each line that is term — ending with len(payload). Cutting
// there keeps each piece's records whole, so the pieces parse, in
// order, to what the whole does.
func recordEnds(payload []byte, term string) (ends []int) {
	for pos := 0; ; {
		line, _, _ := bytes.Cut(payload[pos:], []byte{'\n'})
		if pos = min(pos+len(line)+1, len(payload)); pos == len(payload) {
			return append(ends, pos)
		}
		if string(bytes.TrimSpace(line)) == term {
			ends = append(ends, pos)
		}
	}
}
