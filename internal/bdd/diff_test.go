package bdd

import (
	"fmt"
	"math/rand"
	"testing"
)

// diffBudgets are the node budgets a program can select, from a budget
// that the variables alone nearly exhaust up to the default (0).
var diffBudgets = []int{10, 12, 16, 24, 40, 64, 128, 256, 0}

// runDiff interprets prog on a table-based Manager (initial unique table
// of the given length) and on the map-based reference, and reports the
// first operation whose Ref, error or NumNodes differs; limited says
// whether any operation hit the budget. prog[0] picks the variable count
// (1..8), prog[1] the budget; each following 4-byte group is one
// operation: an opcode and three operand picks. Operands index a pool of
// every Ref produced so far; an operation that hits the budget adds
// nothing to the pool and the program continues.
func runDiff(prog []byte, table int) (limited bool, err error) {
	if len(prog) < 2 {
		return false, nil
	}
	nvars := 1 + int(prog[0]%8)
	budget := diffBudgets[int(prog[1])%len(diffBudgets)]
	m, ref := newSized(nvars, budget, table), newRef(nvars, budget)
	pool := []Ref{False, True}
	for op, p := 0, prog[2:]; len(p) >= 4; op, p = op+1, p[4:] {
		a, b, c := pool[int(p[1])%len(pool)], pool[int(p[2])%len(pool)], pool[int(p[3])%len(pool)]
		var got, want Ref
		var gotErr, wantErr error
		var name string
		switch p[0] % 6 {
		case 0:
			name = "Var"
			got, gotErr = m.Var(int(p[1]) % nvars)
			want, wantErr = ref.Var(int(p[1]) % nvars)
		case 1:
			name = "And"
			got, gotErr = m.And(a, b)
			want, wantErr = ref.And(a, b)
		case 2:
			name = "Or"
			got, gotErr = m.Or(a, b)
			want, wantErr = ref.Or(a, b)
		case 3:
			name = "Xor"
			got, gotErr = m.Xor(a, b)
			want, wantErr = ref.Xor(a, b)
		case 4:
			name = "Not"
			got, gotErr = m.Not(a)
			want, wantErr = ref.Not(a)
		default:
			name = "ITE"
			got, gotErr = m.ITE(a, b, c)
			want, wantErr = ref.ITE(a, b, c)
		}
		if gotErr != wantErr {
			return limited, fmt.Errorf("op %d %s: error %v, reference %v", op, name, gotErr, wantErr)
		}
		if got != want {
			return limited, fmt.Errorf("op %d %s: Ref %d, reference %d", op, name, got, want)
		}
		if m.NumNodes() != ref.NumNodes() {
			return limited, fmt.Errorf("op %d %s: NumNodes %d, reference %d", op, name, m.NumNodes(), ref.NumNodes())
		}
		if gotErr != nil {
			limited = true
			continue
		}
		pool = append(pool, got)
	}
	return limited, nil
}

// diffProgram draws a random program for runDiff: Var operations are
// weighted up early so the pool holds variables before the connectives
// start combining them.
func diffProgram(rng *rand.Rand, ops int) []byte {
	prog := []byte{byte(rng.Intn(8)), byte(rng.Intn(len(diffBudgets)))}
	for i := 0; i < ops; i++ {
		code := byte(1 + rng.Intn(5))
		if i < 4 || rng.Intn(8) == 0 {
			code = 0
		}
		prog = append(prog, code, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return prog
}

// TestManagerMatchesReference runs random operation sequences over at most
// eight variables on the table-based Manager and the map-based reference
// and requires the same Ref for every operation, the same NumNodes after
// it, and ErrNodeLimit at the same operation index. A 4-slot initial table
// (2-slot cache) forces collisions, cache losses and many doublings.
func TestManagerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	limited := 0
	for i := 0; i < 400; i++ {
		prog := diffProgram(rng, 10+rng.Intn(120))
		for _, table := range []int{4, minTable} {
			hit, err := runDiff(prog, table)
			if err != nil {
				t.Fatalf("program %d (table %d): %v", i, table, err)
			}
			if hit {
				limited++
			}
		}
	}
	if limited == 0 {
		t.Error("no program reached its node budget")
	}
}

// FuzzManager explores operation sequences beyond the randomized test's;
// its seed corpus is drawn from the same generator.
func FuzzManager(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		f.Add(diffProgram(rng, 10+rng.Intn(60)))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		for _, table := range []int{4, minTable} {
			if _, err := runDiff(prog, table); err != nil {
				t.Fatalf("table %d: %v", table, err)
			}
		}
	})
}
