package lily_test

import (
	"runtime"
	"testing"
	"time"

	"lily"
)

// TestParallelSpeedupFloor holds the wave-parallel mapper to its
// wall-clock claim (DESIGN.md §13): the C5315 pipeline at
// Parallelism=NumCPU must run at least 1.8x faster than at Parallelism 1.
// The output is byte-identical at both settings
// (TestMappedBLIFGOMAXPROCSInvariant), so only the wall clock is compared.
// The floor is only reachable on hosts with at least 4 CPUs (a 2-CPU
// host tops out below it on Amdahl grounds alone), and a timing is
// meaningless under the race detector, so the test skips there and
// under -short.
func TestParallelSpeedupFloor(t *testing.T) {
	const floor = 1.8
	ncpu := runtime.NumCPU()
	switch {
	case ncpu < 4:
		t.Skipf("NumCPU=%d: the %.1fx floor needs at least 4 CPUs", ncpu, floor)
	case raceEnabled:
		t.Skip("wall-clock floor is not measured under the race detector")
	case testing.Short():
		t.Skip("skipping the timed C5315 runs under -short")
	}
	c, err := lily.GenerateBenchmark("C5315")
	if err != nil {
		t.Fatal(err)
	}
	timed := func(parallelism int) time.Duration {
		start := time.Now()
		if _, err := lily.RunFlow(c, lily.FlowOptions{Mapper: lily.MapperLily, Parallelism: parallelism}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	seq := timed(1)
	par := timed(ncpu)
	speedup := seq.Seconds() / par.Seconds()
	t.Logf("C5315: %v at Parallelism 1, %v at Parallelism %d: %.2fx", seq, par, ncpu, speedup)
	if speedup < floor {
		t.Errorf("C5315 parallel speedup %.2fx < %.1fx floor at NumCPU=%d", speedup, floor, ncpu)
	}
}
