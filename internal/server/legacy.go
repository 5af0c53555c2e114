package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"

	"uucs/internal/atomicfile"
	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/testcase"
)

// Legacy state: every record form an older build wrote and this one
// does not. v2-era builds wrote journals of JSON op lines with no
// header, and legacy snapshots are JSON lines opened by a "meta"
// version 2 line. Under a jmeta header of format 3, uploads were frames
// but registrations and testcase batches JSON lines. Format 4 framed
// every record, but journaled an upload as the client's text results
// frame (so did format-6 builds before the upload cap, for a batch too
// large for a binary record) and wrote aggregate chunks as text, with
// no Ver; formats 4 and 5 wrote testcase batches as text testcases
// frames. Replica journals, being concatenated bootstraps, can hold any
// of these anywhere. This file is their only reader: where
// recordScanner meets a state file's first record not in format 6
// (isFormat6), convertLegacy rewrites the rest of the file as this
// build writes the same ops, so replay, ScanStateOps and the cluster
// merge decode format 6 only.

// A legacy snapshot opens with a "meta" line of stateVersion, the only
// version there is. legacyJournalFormat is the oldest jmeta version.
const (
	opMeta              = "meta"
	stateVersion        = 2
	legacyJournalFormat = 3
)

// checkFormat refuses a jmeta version this build does not read: older
// than legacyJournalFormat or newer than newestJournalFormat, which
// means a future build wrote records this one cannot be sure it parses.
func checkFormat(ver int) error {
	if ver < legacyJournalFormat || ver > newestJournalFormat {
		return fmt.Errorf("unsupported journal format version %d", ver)
	}
	return nil
}

// legacyOp is one JSON state line, or the op of a legacy frame, with
// part a text aggregate chunk's index.
type legacyOp struct {
	Op       string             `json:"op"`
	Ver      int                `json:"ver,omitempty"`
	ID       string             `json:"id,omitempty"`
	Nonce    string             `json:"nonce,omitempty"`
	Snapshot *protocol.Snapshot `json:"snapshot,omitempty"`
	LastSeq  uint64             `json:"last_seq,omitempty"`
	Seq      uint64             `json:"seq,omitempty"`
	Payload  string             `json:"payload,omitempty"`

	part int
}

// isFormat6 reports whether the state file bytes b open with a record
// in the form this build writes, given what protocol.FrameHead read of
// them: the frame's type code settles the record types replay meets by
// the thousand, and a jmeta or results frame is told by its fields,
// read without its CRC or payload. A frame that does not parse counts
// as format 6, for the frame reader to report.
func isFormat6(b []byte, ty protocol.MsgType, headErr error) bool {
	switch {
	case headErr != nil:
		return b[0] == protocol.FrameMagic // a JSON line is not
	case ty == protocol.TypeJournalRuns, ty == protocol.TypeJournalTestcases, ty == protocol.TypeRegistered:
		return true
	}
	var f protocol.Frame
	if _, err := protocol.PeekFrame(b, &f); err != nil {
		return true
	}
	switch f.Type {
	case protocol.TypeJournalMeta:
		return f.Ver == journalFormatVersion
	case protocol.TypeResults:
		return len(f.ClientID) == 0 && f.Ver >= binaryRunsFormat
	}
	return f.Type != protocol.TypeTestcases
}

// convertLegacy returns a state file's bytes converted to format 6,
// given that data[from] starts its first record that is not and rec
// records precede it, and the offset in conv where that record's
// conversion starts, for the scan to resume there. data[:from] is kept
// verbatim; from there on blank separators are dropped and every record
// is converted, in record order. A conversion that does not open with a
// header gets this build's in front. tolerateTail marks the active
// journal, whose final record a crash mid-append may have torn: a frame
// the file ends inside, or a final line with no newline that is not
// valid JSON, is dropped. A torn line that is valid JSON converts like
// any other, so if it then fails to apply it poisons the load, as it
// would with its newline. On failure, bad names the file and the
// failing record's number and offset in data.
func convertLegacy(data []byte, from, rec int, file string, tolerateTail bool) (conv []byte, at int, bad replayRec, err error) {
	c := converter{out: append(make([]byte, 0, len(data)), data[:from]...)}
	for pos := from; pos < len(data) && err == nil; {
		rest := data[pos:]
		switch rest[0] {
		case '\n', '\r', ' ', '\t':
			pos++ // blank separators between JSON lines
			continue
		}
		rec++
		bad = replayRec{file: file, rec: rec, pos: pos}
		if rest[0] == protocol.FrameMagic {
			n, ty, ferr := protocol.FrameHead(rest)
			if tolerateTail && errors.Is(ferr, protocol.ErrShortFrame) {
				break
			}
			if err = ferr; err == nil {
				err = c.frame(rest[:n], ty)
			}
			pos += n
			continue
		}
		line, torn := rest, tolerateTail
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
			line, torn = rest[:nl], false
		}
		pos += min(len(line)+1, len(rest))
		var op legacyOp
		if err = json.Unmarshal(line, &op); err != nil && torn {
			err = nil
			break
		}
		if err == nil {
			err = c.convert(&op)
		}
	}
	if err == nil {
		err = c.endAggregate()
	}
	if err != nil {
		return nil, 0, bad, err
	}
	if !bytes.HasPrefix(c.out, journalHeader) {
		return slices.Concat(journalHeader, c.out), len(journalHeader) + from, bad, nil
	}
	return c.out, from, bad, nil
}

// writeConverted writes a legacy state file's conversion over it.
func writeConverted(path string, conv []byte) error {
	return atomicfile.Write(path, func(f *os.File) error {
		_, err := f.Write(conv)
		return err
	})
}

// converter appends ops to out as this build writes them. A legacy
// aggregate's chunks, cut where its text was, are gathered into agg and
// rewritten as SaveState cuts the same runs, so a converted aggregate
// and a binary copy of its runs dedup chunk by chunk in the merge.
type converter struct {
	out []byte
	agg *aggregate // the legacy aggregate being gathered, if any
}

// frame appends a frame record as it is if it is in format 6, and
// otherwise converts the op it holds: a header, a text testcase batch,
// or a results frame, which is a text upload or a text aggregate chunk.
func (c *converter) frame(rec []byte, ty protocol.MsgType) error {
	if isFormat6(rec, ty, nil) {
		err := c.endAggregate()
		c.out = append(c.out, rec...)
		return err
	}
	var f protocol.Frame
	if _, err := protocol.DecodeFrame(rec, &f); err != nil {
		return err
	}
	op := legacyOp{Op: opResults, ID: string(f.ClientID), Seq: f.Seq, Payload: borrowString(f.Payload), part: f.Count}
	var err error
	switch {
	case f.Type == protocol.TypeJournalMeta:
		op, err = legacyOp{Op: opMeta, Ver: stateVersion}, checkFormat(f.Ver)
	case f.Type == protocol.TypeTestcases:
		op.Op = opTestcases
	case op.ID == "" && len(f.Nonce) != 8:
		err = fmt.Errorf("aggregate hash of %d bytes", len(f.Nonce))
	}
	if err != nil {
		return err
	}
	return c.convert(&op)
}

// convert appends the records of one op: the format header for a
// "meta" op, a registration record, jtestcases records for a testcase
// batch, or an upload's jruns record, with its client id and seq. Any
// other op is an error, except an aggregate chunk, whose runs join the
// aggregate gathered (chunk 0 starts one), and whose text feeds its
// hash. Every legacy writer hashed the very text it stored, cut at run
// ends, so the hash comes out as the one the aggregate was stored with.
func (c *converter) convert(op *legacyOp) (err error) {
	if op.Op == opResults && op.ID == "" && op.Seq == 0 {
		if c.agg == nil || op.part == 0 {
			if err = c.endAggregate(); err != nil {
				return err
			}
			c.agg = newAggregate()
		}
		runs, err := core.ParseRuns(borrowBytes(op.Payload))
		if err != nil {
			return err
		}
		return c.agg.add(runs, borrowBytes(op.Payload))
	}
	if err = c.endAggregate(); err != nil {
		return err
	}
	switch op.Op {
	case opMeta:
		if op.Ver != stateVersion {
			return fmt.Errorf("unsupported state version %d", op.Ver)
		}
		c.out = append(c.out, journalHeader...)
	case opClient:
		c.out, err = appendClientRecord(c.out, op.ID, op.Nonce, op.Snapshot, op.LastSeq)
	case opTestcases:
		var tcs []*testcase.Testcase
		if tcs, err = testcase.Parse(borrowBytes(op.Payload)); err == nil {
			c.out, err = appendTestcaseBatch(c.out, tcs)
		}
	case opResults:
		var batch []byte
		if batch, _, err = core.TranscodeRuns(nil, borrowBytes(op.Payload)); err == nil {
			c.out, err = protocol.AppendFrame(c.out, protocol.Message{
				Type: protocol.TypeJournalRuns, ClientID: op.ID, Seq: op.Seq, Payload: borrowString(batch),
			})
		}
	default:
		err = fmt.Errorf("unknown op %q", op.Op)
	}
	return err
}

// endAggregate appends the aggregate gathered, if any.
func (c *converter) endAggregate() error {
	if c.agg == nil {
		return nil
	}
	b := bytes.NewBuffer(c.out)
	err := c.agg.writeTo(b)
	c.out, c.agg = b.Bytes(), nil
	return err
}
