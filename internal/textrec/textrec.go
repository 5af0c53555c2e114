// Package textrec lexes the line-oriented text records shared by the
// testcase and run-record codecs: one directive per line, operands
// separated by whitespace, blank lines and '#' comments skipped.
//
// It works on byte slices without bufio.Scanner or strings.Fields, yet
// keeps their rules exactly: lines end at '\n' with one trailing '\r'
// dropped, a line must be shorter than MaxLine bytes, and a line holding
// any non-ASCII byte is split by Unicode whitespace through the strings
// package.
package textrec

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"sync"
)

// MaxLine bounds one line, terminator included: exercise functions and
// load recordings make long lines, but a stream is not allowed to make
// a decoder hold an unbounded one.
const MaxLine = 1 << 24

// NextLine splits the first line off data. line excludes the '\n' and
// one trailing '\r'. A line of MaxLine bytes or more fails with
// bufio.ErrTooLong, the error a bufio.Scanner capped at MaxLine returns.
func NextLine(data []byte) (line, rest []byte, err error) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		line = data
	} else {
		line, rest = data[:i], data[i+1:]
	}
	if len(line) >= MaxLine {
		return nil, nil, bufio.ErrTooLong
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, rest, nil
}

// Byte classes for Fields: the ASCII bytes unicode.IsSpace accepts
// separate fields, and any non-ASCII byte sends the line down the
// Unicode path.
const (
	fieldByte = iota
	spaceByte
	nonASCII
)

var class = func() (c [256]uint8) {
	for _, b := range "\t\n\v\f\r " {
		c[b] = spaceByte
	}
	for b := 0x80; b < 0x100; b++ {
		c[b] = nonASCII
	}
	return c
}()

// Fields appends line's whitespace-separated fields to dst[:0] and
// returns them; the result is empty for a blank or '#' comment line.
// ASCII fields are views of line; a line with non-ASCII bytes is split
// by strings.Fields on a copy.
func Fields(dst [][]byte, line []byte) [][]byte {
	dst = dst[:0]
	for i := 0; i < len(line); {
		for i < len(line) && class[line[i]] == spaceByte {
			i++
		}
		start := i
		for i < len(line) && class[line[i]] == fieldByte {
			i++
		}
		if i < len(line) && class[line[i]] == nonASCII {
			return unicodeFields(dst[:0], line)
		}
		if i > start {
			dst = append(dst, line[start:i])
		}
	}
	if len(dst) > 0 && dst[0][0] == '#' {
		return dst[:0]
	}
	return dst
}

func unicodeFields(dst [][]byte, line []byte) [][]byte {
	text := strings.TrimSpace(string(line))
	if text == "" || text[0] == '#' {
		return dst
	}
	for _, f := range strings.Fields(text) {
		dst = append(dst, []byte(f))
	}
	return dst
}

// Join returns fields joined by single spaces, as a fresh string.
func Join(fields [][]byte) string {
	if len(fields) == 1 {
		return string(fields[0])
	}
	return string(bytes.Join(fields, []byte{' '}))
}

// chunkSize is how much encoded text Write collects per w.Write.
const chunkSize = 64 << 10

var bufs = sync.Pool{New: func() any { b := make([]byte, 0, chunkSize); return &b }}

// Write encodes items to w through a pooled buffer: enc appends one
// item, and the buffer goes out whenever chunkSize bytes have collected
// and after the last item. Write stops at the first enc error; earlier
// chunks may have been written by then.
func Write[T any](w io.Writer, items []T, enc func(dst []byte, item T) ([]byte, error)) error {
	bp := bufs.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		*bp = buf[:0]
		bufs.Put(bp)
	}()
	for i, item := range items {
		var err error
		if buf, err = enc(buf, item); err != nil {
			return err
		}
		if len(buf) >= chunkSize || i == len(items)-1 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return nil
}
