package hostsim

import (
	"math"
	"testing"
)

// TestMicroKernelsPinned pins the §2.2 fidelity kernels' outputs bit
// for bit on a small grid of integer and fractional contention levels.
// The c=1.5 CPU and c=7 disk points are the gated benchmark bodies'
// reported shares (share_at_c1.5, share_at_c7).
func TestMicroKernelsPinned(t *testing.T) {
	ms := DefaultMicroSim()
	cpu := []struct{ c, want float64 }{
		{0, 1.0001666666666105},
		{1, 0.5001666666666982},
		{1.5, 0.41900000000001886},
		{2.25, 0.3130000000000023},
		{4, 0.20016666666666313},
		{7, 0.12516666666666473},
		{10, 0.0909999999999988},
	}
	for _, p := range cpu {
		got, err := ms.MeasureCPUShare(p.c, 60, 7)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(p.want) {
			t.Errorf("MeasureCPUShare(c=%v, 60 s, seed 7) = %v, want %v", p.c, got, p.want)
		}
	}
	disk := []struct{ c, want float64 }{
		{0, 1.003025146530535},
		{1, 0.5016071090943468},
		{2.5, 0.2862544904518813},
		{3, 0.2508980903762526},
		{5.75, 0.148421251654377},
		{7, 0.12554358101720553},
	}
	for _, p := range disk {
		got, err := ms.MeasureDiskShare(p.c, 60, StudyMachine(), 7)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(p.want) {
			t.Errorf("MeasureDiskShare(c=%v, 60 s, seed 7) = %v, want %v", p.c, got, p.want)
		}
	}
}
