package main

import (
	"math"
	"strings"
	"testing"
)

const statBefore = `cpu  100 5 50 800 10 1 2 32 0 0
cpu0 50 2 25 400 5 0 1 16 0 0
intr 12345
`

const statAfter = `cpu  150 5 70 900 10 1 2 62 7 0
cpu0 75 2 35 450 5 0 1 31 4 0
`

func TestParseCPUStat(t *testing.T) {
	st, err := parseCPUStat(strings.NewReader(statBefore))
	if err != nil {
		t.Fatal(err)
	}
	// user..steal only; guest time is already inside user.
	if st.total != 100+5+50+800+10+1+2+32 || st.steal != 32 {
		t.Fatalf("got %+v", st)
	}
	after, err := parseCPUStat(strings.NewReader(statAfter))
	if err != nil {
		t.Fatal(err)
	}
	// 30 stolen ticks out of 200 elapsed.
	if got := stealPct(st, after); math.Abs(got-15) > 1e-12 {
		t.Fatalf("steal %v%%, want 15%%", got)
	}
	if got := stealPct(after, st); got != 0 {
		t.Fatalf("steal across a counter reset %v, want 0", got)
	}
}

func TestParseCPUStatOldKernelAndErrors(t *testing.T) {
	st, err := parseCPUStat(strings.NewReader("cpu 1 2 3 4\n"))
	if err != nil || st.total != 10 || st.steal != 0 {
		t.Fatalf("pre-steal kernel: %+v, %v", st, err)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5\n", "cpu 1 2\n", "cpu 1 x 3 4 5\n"} {
		if _, err := parseCPUStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parseCPUStat(%q) succeeded", bad)
		}
	}
}
