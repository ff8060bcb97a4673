package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"raidsim/internal/rng"
	"raidsim/internal/sim"
)

func sampleTrace() *Trace {
	return &Trace{
		Name:          "sample",
		NumDisks:      4,
		BlocksPerDisk: 1000,
		Records: []Record{
			{At: 0, Op: Read, LBA: 10, Blocks: 1},
			{At: 1000, Op: Write, LBA: 1500, Blocks: 4},
			{At: 1000, Op: Read, LBA: 2100, Blocks: 1},
			{At: 5000, Op: Write, LBA: 3999, Blocks: 1},
		},
	}
}

func randomTrace(seed uint64, n int) *Trace {
	src := rng.New(seed)
	t := &Trace{Name: "rand", NumDisks: 8, BlocksPerDisk: 5000}
	var at sim.Time
	for i := 0; i < n; i++ {
		at += sim.Time(src.Intn(100000)) * sim.Microsecond
		blocks := 1 + src.Intn(16)
		lba := src.Int63n(int64(t.NumDisks)*t.BlocksPerDisk - int64(blocks))
		op := Read
		if src.Bool(0.3) {
			op = Write
		}
		t.Records = append(t.Records, Record{At: at, Op: op, LBA: lba, Blocks: blocks})
	}
	return t
}

func TestValidate(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatalf("sample should validate: %v", err)
	}
	bad := []*Trace{
		{Name: "shape", NumDisks: 0, BlocksPerDisk: 10},
		func() *Trace { tr := sampleTrace(); tr.Records[1].At = -1; return tr }(),
		func() *Trace { tr := sampleTrace(); tr.Records[3].At = 100; return tr }(), // goes back
		func() *Trace { tr := sampleTrace(); tr.Records[0].Blocks = 0; return tr }(),
		func() *Trace { tr := sampleTrace(); tr.Records[0].LBA = 4000; return tr }(), // out of space
		func() *Trace { tr := sampleTrace(); tr.Records[1].Blocks = 5000; return tr }(),
	}
	for i, tr := range bad {
		if tr.Validate() == nil {
			t.Errorf("bad trace %d validated", i)
		}
	}
}

func TestScale(t *testing.T) {
	tr := sampleTrace()
	fast, err := tr.Scale(2)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Duration() != tr.Duration()/2 {
		t.Fatalf("2x speed duration %d, want %d", fast.Duration(), tr.Duration()/2)
	}
	if len(fast.Records) != len(tr.Records) {
		t.Fatal("scaling changed record count")
	}
	slow, err := tr.Scale(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Duration() != tr.Duration()*2 {
		t.Fatalf("0.5x speed duration %d", slow.Duration())
	}
	// Original untouched.
	if tr.Records[1].At != 1000 {
		t.Fatal("Scale mutated the source trace")
	}
	if _, err := tr.Scale(0); err == nil {
		t.Fatal("zero speed should be rejected")
	}
	if _, err := tr.Scale(-1); err == nil {
		t.Fatal("negative speed should be rejected")
	}
}

func TestTruncate(t *testing.T) {
	tr := sampleTrace()
	cut := tr.Truncate(2)
	if len(cut.Records) != 2 {
		t.Fatalf("truncate kept %d records", len(cut.Records))
	}
	if same := tr.Truncate(100); same != tr {
		t.Fatal("truncate beyond length should return the original")
	}
}

func TestSplitByGroup(t *testing.T) {
	tr := sampleTrace()
	subs, err := tr.SplitByGroup(2) // disks {0,1}, {2,3}
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("got %d groups", len(subs))
	}
	if len(subs[0].Records) != 2 || len(subs[1].Records) != 2 {
		t.Fatalf("group sizes %d/%d", len(subs[0].Records), len(subs[1].Records))
	}
	for g, sub := range subs {
		if cap(sub.Records) != len(sub.Records) {
			t.Fatalf("group %d: cap %d != len %d: records not presized", g, cap(sub.Records), len(sub.Records))
		}
	}
	// Re-addressing: group 1's first record was LBA 2100 (disk 2) ->
	// 2100 - 2*1000 = 100.
	if subs[1].Records[0].LBA != 100 {
		t.Fatalf("re-addressed LBA = %d, want 100", subs[1].Records[0].LBA)
	}
	for _, sub := range subs {
		if err := sub.Validate(); err != nil {
			t.Fatalf("split part invalid: %v", err)
		}
	}
	// Uneven split: 4 disks into groups of 3 -> groups of 3 and 1 disks.
	subs, err = tr.SplitByGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 || subs[0].NumDisks != 3 || subs[1].NumDisks != 1 {
		t.Fatalf("uneven split wrong: %d groups", len(subs))
	}
	if _, err := tr.SplitByGroup(0); err == nil {
		t.Fatal("non-positive group size should be rejected")
	}
}

func TestSplitPreservesEverything(t *testing.T) {
	f := func(seed uint64, groupRaw uint8) bool {
		tr := randomTrace(seed, 300)
		per := 1 + int(groupRaw%8)
		subs, err := tr.SplitByGroup(per)
		if err != nil {
			return false
		}
		total := 0
		for g, sub := range subs {
			total += len(sub.Records)
			base := int64(g) * int64(per) * tr.BlocksPerDisk
			for _, r := range sub.Records {
				if r.LBA < 0 || r.LBA >= int64(sub.NumDisks)*sub.BlocksPerDisk {
					return false
				}
				_ = base
			}
			if sub.Validate() != nil {
				return false
			}
			if cap(sub.Records) != len(sub.Records) {
				return false
			}
		}
		return total == len(tr.Records) && reflect.DeepEqual(subs, splitByAppend(tr, per))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// splitByAppend is SplitByGroup as it was before presizing: records grow
// each sub-trace by append. The presized split must match it record for
// record.
func splitByAppend(t *Trace, perGroup int) []*Trace {
	ngroups := (t.NumDisks + perGroup - 1) / perGroup
	out := make([]*Trace, ngroups)
	for g := range out {
		disks := perGroup
		if g == ngroups-1 {
			disks = t.NumDisks - g*perGroup
		}
		out[g] = &Trace{
			Name:          fmt.Sprintf("%s/g%d", t.Name, g),
			NumDisks:      disks,
			BlocksPerDisk: t.BlocksPerDisk,
			Classes:       copyClasses(t.Classes),
		}
	}
	for _, r := range t.Records {
		g := int(r.LBA / t.BlocksPerDisk / int64(perGroup))
		r.LBA -= int64(g) * int64(perGroup) * t.BlocksPerDisk
		sub := out[g]
		if max := int64(sub.NumDisks)*sub.BlocksPerDisk - r.LBA; int64(r.Blocks) > max {
			r.Blocks = int(max)
		}
		sub.Records = append(sub.Records, r)
	}
	return out
}

func TestMerge(t *testing.T) {
	tr := randomTrace(1, 200)
	subs, err := tr.SplitByGroup(tr.NumDisks) // single group: identity modulo name
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge("m", subs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Records) != len(tr.Records) {
		t.Fatal("merge lost records")
	}
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge("x"); err == nil {
		t.Fatal("empty merge should fail")
	}
}

func TestTextRoundtrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.NumDisks != tr.NumDisks || got.BlocksPerDisk != tr.BlocksPerDisk {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Records, tr.Records) {
		t.Fatalf("records mismatch:\n got %v\nwant %v", got.Records, tr.Records)
	}
}

func TestBinaryRoundtrip(t *testing.T) {
	f := func(seed uint64) bool {
		tr := randomTrace(seed, 200)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Records, tr.Records) &&
			got.NumDisks == tr.NumDisks && got.BlocksPerDisk == tr.BlocksPerDisk
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	tr := randomTrace(3, 5000)
	var txt, bin bytes.Buffer
	if err := WriteText(&txt, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= txt.Len() {
		t.Fatalf("binary (%d) not smaller than text (%d)", bin.Len(), txt.Len())
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"",
		"not a header\n",
		"raidsim-trace v1 x 4\n",                   // missing field
		"raidsim-trace v1 x 4 100\n1 Q 5 1\n",      // bad op
		"raidsim-trace v1 x 4 100\n-5 R 5 1\n",     // negative delta
		"raidsim-trace v1 x 4 100\n1 R 5\n",        // missing field
		"raidsim-trace v1 x 4 100\n1 R 999999 1\n", // out of range
	}
	for i, c := range cases {
		if _, err := ReadText(bytes.NewBufferString(c)); err == nil {
			t.Errorf("case %d parsed", i)
		}
	}
	// Comments and blank lines are fine.
	ok := "raidsim-trace v1 x 4 100\n# comment\n\n1 R 5 1\n"
	tr, err := ReadText(bytes.NewBufferString(ok))
	if err != nil || len(tr.Records) != 1 {
		t.Fatalf("comment handling broken: %v", err)
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(bytes.NewBufferString("garbage")); err == nil {
		t.Fatal("garbage parsed as binary trace")
	}
	// Truncated stream.
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadBinary(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated binary trace parsed")
	}
}

func TestCharacterize(t *testing.T) {
	tr := sampleTrace()
	c := Characterize(tr)
	if c.Accesses != 4 || c.BlocksTransferred != 7 {
		t.Fatalf("accesses %d blocks %d", c.Accesses, c.BlocksTransferred)
	}
	if c.SingleBlockReads != 2 || c.SingleBlockWrites != 1 || c.MultiBlockReads != 0 || c.MultiBlockWrites != 1 {
		t.Fatalf("mix wrong: %+v", c)
	}
	if got := c.WriteFraction(); got != 0.5 {
		t.Fatalf("write fraction %f", got)
	}
	if got := c.SingleBlockFraction(); got != 0.75 {
		t.Fatalf("single fraction %f", got)
	}
	// Per-disk: lba 10 -> disk 0, 1500 -> 1, 2100 -> 2, 3999 -> 3.
	for d := 0; d < 4; d++ {
		if c.PerDiskAccesses[d] != 1 {
			t.Fatalf("disk %d accesses %d", d, c.PerDiskAccesses[d])
		}
	}
	if c.Skew() != 1 {
		t.Fatalf("skew %f, want 1 (uniform)", c.Skew())
	}
	if s := c.String(); len(s) == 0 {
		t.Fatal("empty characterization string")
	}
}

func classedTrace() *Trace {
	tr := sampleTrace()
	tr.Classes = []ClassInfo{
		{Name: "oltp", SLO: SLOGold},
		{Name: "scan", SLO: SLOBatch},
		{Name: "misc", SLO: SLOAuto},
	}
	for i := range tr.Records {
		tr.Records[i].Class = uint8(i % len(tr.Classes))
	}
	return tr
}

func TestClassedTextRoundtrip(t *testing.T) {
	tr := classedTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("raidsim-trace v2 ")) {
		t.Fatalf("classed trace should write v2, got header %q", bytes.SplitN(buf.Bytes(), []byte("\n"), 2)[0])
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Classes, tr.Classes) {
		t.Fatalf("classes mismatch:\n got %v\nwant %v", got.Classes, tr.Classes)
	}
	if !reflect.DeepEqual(got.Records, tr.Records) {
		t.Fatalf("records mismatch:\n got %v\nwant %v", got.Records, tr.Records)
	}
}

func TestClassedBinaryRoundtrip(t *testing.T) {
	tr := classedTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("RSTB2\n")) {
		t.Fatalf("classed trace should write RSTB2, got %q", buf.Bytes()[:6])
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Classes, tr.Classes) {
		t.Fatalf("classes mismatch:\n got %v\nwant %v", got.Classes, tr.Classes)
	}
	if !reflect.DeepEqual(got.Records, tr.Records) {
		t.Fatalf("records mismatch:\n got %v\nwant %v", got.Records, tr.Records)
	}
}

func TestClasslessStaysV1(t *testing.T) {
	tr := sampleTrace()
	var txt, bin bytes.Buffer
	if err := WriteText(&txt, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(txt.Bytes(), []byte("raidsim-trace v1 ")) {
		t.Fatalf("classless trace should keep v1, got %q", bytes.SplitN(txt.Bytes(), []byte("\n"), 2)[0])
	}
	if !bytes.HasPrefix(bin.Bytes(), []byte("RSTB1\n")) {
		t.Fatalf("classless trace should keep RSTB1, got %q", bin.Bytes()[:6])
	}
}
