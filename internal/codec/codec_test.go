package codec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"kspdg/internal/graph"
)

// writeSample encodes one of every field kind, then ends the frame.
func writeSample(e *Encoder) {
	e.Raw("MAGIC")
	e.U8(7)
	e.U32(1 << 31)
	e.U64(1 << 63)
	e.I32(-5)
	e.I64(-6)
	e.Int(-7)
	e.F64(2.5)
	e.Bool(true)
	e.Text("héllo")
	e.Count(3)
	PutIDs(e, []graph.VertexID{4, -1, 9})
	e.Count(2)
	PutF64s(e, []float64{0.5, -1e300})
	e.Weights([]graph.WeightUpdate{{Edge: 3, NewWeight: 1.5}})
	e.Topology(graph.TopologyUpdate{AddVertices: 1 << 20, DeleteEdges: []graph.EdgeID{8}})
	e.Frame()
}

type sample struct {
	Magic  string
	U8     uint8
	U32    uint32
	U64    uint64
	I32    int32
	I64    int64
	Int    int
	F64    float64
	Bool   bool
	Text   string
	IDs    []graph.VertexID
	F64s   []float64
	Batch  []graph.WeightUpdate
	Topo   *graph.TopologyUpdate
	Offset int64
}

// readSample decodes the fields writeSample wrote, stopping before the
// frame's CRC.  Struct fields are read in order (Go evaluates a composite
// literal's calls left to right).
func readSample(d *Decoder) sample {
	s := sample{
		Magic: d.Raw(5), U8: d.U8(), U32: d.U32(), U64: d.U64(), I32: d.I32(), I64: d.I64(), Int: d.Int(),
		F64: d.F64(), Bool: d.Bool(), Text: d.Text(),
		IDs:   GetIDs[graph.VertexID](d, d.Count(4)),
		F64s:  GetF64s(d, d.Count(8)),
		Batch: d.Weights(),
		Topo:  d.Topology(),
	}
	s.Offset = d.Offset()
	return s
}

// readStreamSample decodes writeSample's frame from a stream, CRC included.
func readStreamSample(data []byte) (sample, error) {
	d := NewDecoder(bytes.NewReader(data), int64(len(data)))
	s := readSample(d)
	d.Frame()
	return s, d.Err()
}

// TestStreamAndMemoryDecodersAgree encodes every field kind once streaming
// and once buffered, requires the stream decoder (CRC checked) and the memory
// decoder (over the body, as ReadSized hands it over) to read the same values
// back, and the stream decoder to refuse a flipped bit.
func TestStreamAndMemoryDecodersAgree(t *testing.T) {
	var streamed bytes.Buffer
	e := NewEncoder(&streamed)
	writeSample(e)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	var buffered Encoder
	writeSample(&buffered)
	if !bytes.Equal(streamed.Bytes(), buffered.Bytes()) {
		t.Fatal("streaming and buffering encoders wrote different bytes")
	}
	data := buffered.Bytes()

	fromStream, err := readStreamSample(data)
	if err != nil {
		t.Fatalf("stream decoder: %v", err)
	}
	body := data[:len(data)-4]
	d := NewBytesDecoder(body)
	fromMemory := readSample(d)
	if err := d.Err(); err != nil || d.Left() != 0 {
		t.Fatalf("memory decoder: %v, %d bytes left", err, d.Left())
	}
	if !reflect.DeepEqual(fromStream, fromMemory) {
		t.Fatalf("decoders disagree:\n stream %+v\n memory %+v", fromStream, fromMemory)
	}
	if fromMemory.Offset != int64(len(body)) || fromMemory.Text != "héllo" || fromMemory.Topo.AddVertices != 1<<20 ||
		fromMemory.IDs[1] != -1 || fromMemory.F64s[1] != -1e300 || fromMemory.Int != -7 {
		t.Fatalf("decoded %+v", fromMemory)
	}

	for i := range data {
		bad := bytes.Clone(data)
		bad[i] ^= 0x10
		if _, err := readStreamSample(bad); err == nil {
			t.Fatalf("stream decoder accepted a flipped bit at byte %d", i)
		}
	}
}

// TestResetAppends checks that a Reset Encoder keeps the bytes it was given
// and starts its first frame after them.
func TestResetAppends(t *testing.T) {
	var e Encoder
	e.BeginSized()
	e.Raw("one")
	e.EndSized()
	e.Reset(e.Bytes())
	e.BeginSized()
	e.Raw("two")
	e.EndSized()
	r := bytes.NewReader(e.Bytes())
	for _, want := range []string{"one", "two"} {
		if body, err := ReadSized(r, nil); err != nil || string(body) != want {
			t.Fatalf("ReadSized = %q, %v; want %q", body, err, want)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after two frames", r.Len())
	}
}

// TestCountBounds holds counts to what the input can hold: per element for
// counts of encoded elements, by the whole input for elem 0, and only by the
// int32 range for Number.
func TestCountBounds(t *testing.T) {
	var e Encoder
	e.Count(3)
	e.Count(1000)
	e.Count(1000)
	data := e.Bytes()
	d := NewBytesDecoder(data)
	if n := d.Count(1); n != 3 || d.Err() != nil {
		t.Fatalf("Count(1) of 3 with 8 bytes left = %d, %v", n, d.Err())
	}
	if n := d.Number(); n != 1000 || d.Err() != nil {
		t.Fatalf("Number of 1000 in a 12-byte input = %d, %v", n, d.Err())
	}
	if n := d.Count(0); n != 0 || d.Err() == nil {
		t.Fatalf("Count(0) of 1000 in a 12-byte input = %d, %v; want a failure", n, d.Err())
	}
	if v := d.U32(); v != 0 {
		t.Fatalf("a field after the first error read %d, want 0", v)
	}
}

// TestSizedFrames reads back-to-back sized frames into one reused buffer and
// checks each way a frame can be wrong.
func TestSizedFrames(t *testing.T) {
	var e Encoder
	for _, body := range []string{"first", "", "third body"} {
		e.BeginSized()
		e.Raw(body)
		e.EndSized()
	}
	stream := e.Bytes()

	r := bytes.NewReader(stream)
	var buf []byte
	for _, want := range []string{"first", "", "third body"} {
		body, err := ReadSized(r, buf)
		if err != nil || string(body) != want {
			t.Fatalf("ReadSized = %q, %v; want %q", body, err, want)
		}
		buf = body
	}
	if _, err := ReadSized(r, buf); err != io.EOF {
		t.Fatalf("at the end of the stream: %v, want io.EOF", err)
	}

	if _, err := ReadSized(bytes.NewReader(stream[:7]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}
	bad := bytes.Clone(stream)
	bad[0]-- // the count, which the CRC covers
	if _, err := ReadSized(bytes.NewReader(bad), nil); err == nil {
		t.Fatal("a frame with a wrong count passed its checksum")
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadSized(bytes.NewReader(huge), nil); !errors.Is(err, errSizedTooBig) {
		t.Fatalf("a 4 GiB count: %v, want errSizedTooBig", err)
	}
}

// windowFrames are the content lengths of the frames TestStreamDecoderWindows
// streams: with their 4-byte CRCs, the second, fourth and fifth straddle a
// multiple of 64 KiB, and the fourth is larger than the window.
var windowFrames = []int{100, 65530, 7, 70000, 65536, 1, 40000}

// windowStream encodes windowFrames, each frame one Raw field of patterned
// bytes, and returns the stream and each frame's content.
func windowStream() ([]byte, []string) {
	var e Encoder
	var contents []string
	for i, n := range windowFrames {
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(j*31 + i)
		}
		contents = append(contents, string(b))
		e.Raw(string(b))
		e.Frame()
	}
	return e.Bytes(), contents
}

// TestStreamDecoderWindows reads frames that straddle the stream Decoder's
// 64 KiB window edges, and a field larger than the window, through readers
// that hand over one byte, half the request, or the last bytes with io.EOF.
// Every reader gives the same fields, offsets and checksums, and a byte
// flipped on either side of a window edge fails its frame's checksum.
func TestStreamDecoderWindows(t *testing.T) {
	data, contents := windowStream()
	readers := map[string]func(io.Reader) io.Reader{
		"whole":   func(r io.Reader) io.Reader { return r },
		"onebyte": iotest.OneByteReader,
		"half":    iotest.HalfReader,
		"dataerr": iotest.DataErrReader,
	}
	decode := func(wrap func(io.Reader) io.Reader, data []byte) error {
		d := NewDecoder(wrap(bytes.NewReader(data)), int64(len(data)))
		off := int64(0)
		for i, n := range windowFrames {
			// Two reads, so that the second refills the window, or reads
			// past it, with bytes of the frame already consumed.
			head := min(n, 7)
			got := d.Raw(head) + d.Raw(n-head)
			d.Frame()
			if err := d.Err(); err != nil {
				return err
			}
			if got != contents[i] {
				return fmt.Errorf("frame %d: read other bytes than were written", i)
			}
			if off += int64(n + 4); d.Offset() != off {
				return fmt.Errorf("frame %d: offset %d, want %d", i, d.Offset(), off)
			}
		}
		if d.Left() != 0 {
			return fmt.Errorf("%d bytes left", d.Left())
		}
		return nil
	}
	for name, wrap := range readers {
		if err := decode(wrap, data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for edge := chunk; edge < len(data); edge += chunk {
		for _, i := range []int{edge - 1, edge} {
			bad := bytes.Clone(data)
			bad[i] ^= 0x10
			for name, wrap := range readers {
				if err := decode(wrap, bad); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
					t.Fatalf("%s: byte %d flipped: %v, want a checksum mismatch", name, i, err)
				}
			}
		}
	}
}

// readOps decodes the fields ops names from d, one per op, and renders what
// each read and the decoder's offset and error state after it.  An op of 6
// mod 8 reads op×600 raw bytes, past the 64 KiB window from op 110 on.
func readOps(d *Decoder, ops []byte) string {
	var out strings.Builder
	for _, op := range ops {
		var v any
		switch op % 8 {
		case 0:
			v = d.U8()
		case 1:
			v = d.U32()
		case 2:
			v = d.U64()
		case 3:
			v = d.Bool()
		case 4:
			v = d.Text()
		case 5:
			v = GetIDs[graph.VertexID](d, d.Count(4))
		case 6:
			v = d.Raw(int(op) * 600)
		case 7:
			v = d.Weights()
		}
		fmt.Fprintf(&out, "%v@%d:%t ", v, d.Offset(), d.Err() != nil)
	}
	return out.String()
}

// FuzzStreamMatchesMemory reads the same fields from arbitrary bytes with a
// stream Decoder over iotest.HalfReader and with a memory Decoder: both must
// read the same values, stop at the same offsets and fail at the same field.
func FuzzStreamMatchesMemory(f *testing.F) {
	var e Encoder
	writeSample(&e)
	f.Add(e.Bytes(), []byte{0, 1, 2, 3, 4, 5, 7})
	data, _ := windowStream()
	f.Add(data, []byte{6, 110, 2, 118, 5, 1})
	f.Add(data[:70000], []byte{118})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		stream := readOps(NewDecoder(iotest.HalfReader(bytes.NewReader(data)), int64(len(data))), ops)
		memory := readOps(NewBytesDecoder(data), ops)
		if stream != memory {
			t.Fatalf("stream and memory decoders disagree:\n stream %s\n memory %s", stream, memory)
		}
	})
}
