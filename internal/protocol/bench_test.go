package protocol_test

import (
	"testing"

	"uucs/internal/benchsuite"
)

// The codec benchmarks' bodies live in internal/benchsuite, which the
// regression gate (cmd/uucs-bench) runs too. This file is an external
// test package because benchsuite imports protocol.

func BenchmarkEncodeMessage(b *testing.B) { benchsuite.Sub(b, "BenchmarkEncodeMessage") }

func BenchmarkDecodeMessage(b *testing.B) { benchsuite.Sub(b, "BenchmarkDecodeMessage") }
