// Package codec is the repository's one binary codec: the store's snapshot
// and WAL files and the cluster's TCP wire are written by one Encoder and
// read by one Decoder, under one frame rule.
//
// All integers are little-endian and floats are IEEE-754 bits, so every
// value round-trips exactly.  A frame is its bytes followed by the u32
// CRC-32C of those bytes (Encoder.Frame, Decoder.Frame).  A sized frame
// starts with a u32 count of the body bytes that follow it; its CRC covers
// the count and the body (Encoder.BeginSized/EndSized, ReadSized), so a
// stream of them needs no other delimiter.
//
// Both types keep the first error, as a scanner does: from then on the
// Encoder writes nothing and the Decoder reads every field as zero and every
// count as 0, so callers check Err once per structure instead of once per
// field.  A count field is bounded by the bytes left in the input before
// anything is allocated for it, so a corrupt or hostile count fails instead
// of forcing a huge allocation.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"kspdg/internal/graph"
)

const (
	// chunk is the size at which an Encoder with a writer flushes, and the
	// window a stream Decoder reads through.
	chunk = 1 << 16

	// maxSized bounds the body of a sized frame.
	maxSized = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encoder appends little-endian fields to a buffer.  NewEncoder gives one
// that flushes to a writer every 64 KiB; the zero Encoder (or one after
// Reset) only buffers, and the caller takes Bytes.
type Encoder struct {
	w     io.Writer
	buf   []byte
	mark  int    // start in buf of the current frame's bytes not yet in crc
	crc   uint32 // CRC-32C of the current frame's bytes before mark
	sized int    // offset in buf of the open sized frame's count field
	err   error
}

// NewEncoder returns an Encoder that streams to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Reset makes e a buffering Encoder that appends to buf, keeping its bytes;
// the first frame starts after them.  Pass buf[:0] to reuse only storage.
func (e *Encoder) Reset(buf []byte) { *e = Encoder{buf: buf, mark: len(buf)} }

// Bytes returns the buffered bytes (all of them, for a buffering Encoder).
func (e *Encoder) Bytes() []byte { return e.buf }

// Err returns the first write error.
func (e *Encoder) Err() error { return e.err }

// Raw appends s's bytes with no count (a magic string, say).
func (e *Encoder) Raw(s string) { e.buf = append(e.buf, s...); e.spill() }

// Text appends s as a u32 byte count then its bytes.
func (e *Encoder) Text(s string) { e.Count(len(s)); e.Raw(s) }

// U8 to Count64 append one fixed-width field each; Int is an i64 and Count
// a u32.
func (e *Encoder) U8(v uint8)    { e.buf = append(e.buf, v); e.spill() }
func (e *Encoder) U32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v); e.spill() }
func (e *Encoder) U64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v); e.spill() }
func (e *Encoder) I32(v int32)   { e.U32(uint32(v)) }
func (e *Encoder) I64(v int64)   { e.U64(uint64(v)) }
func (e *Encoder) Int(v int)     { e.U64(uint64(v)) }
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Encoder) Count(n int)   { e.U32(uint32(n)) }
func (e *Encoder) Count64(n int) { e.U64(uint64(n)) }

// Bool appends a flag as one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	e.U8(b)
}

// PutIDs appends ids as consecutive i32s; the count, if any, is the
// caller's.
func PutIDs[T ~int32](e *Encoder, ids []T) {
	e.buf = slices.Grow(e.buf, 4*len(ids))
	for _, v := range ids {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(v))
	}
	e.spill()
}

// PutF64s appends vs as consecutive f64s; the count, if any, is the
// caller's.
func PutF64s(e *Encoder, vs []float64) {
	e.buf = slices.Grow(e.buf, 8*len(vs))
	for _, v := range vs {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
	}
	e.spill()
}

func (e *Encoder) spill() {
	if e.w != nil && len(e.buf) >= chunk {
		e.Flush()
	}
}

// Frame ends a frame: it appends the CRC-32C of every byte since the
// previous frame ended, or since the encoder started.
func (e *Encoder) Frame() {
	sum := crc32.Update(e.crc, crcTable, e.buf[e.mark:])
	e.buf = binary.LittleEndian.AppendUint32(e.buf, sum)
	e.mark, e.crc = len(e.buf), 0
}

// BeginSized starts a sized frame by reserving its u32 count field.  Only a
// buffering Encoder writes sized frames, and it must be at a frame boundary.
func (e *Encoder) BeginSized() {
	e.sized = len(e.buf)
	e.U32(0)
}

// EndSized fills in the count of the open sized frame and ends the frame.
func (e *Encoder) EndSized() {
	binary.LittleEndian.PutUint32(e.buf[e.sized:], uint32(len(e.buf)-e.sized-4))
	e.Frame()
}

// Flush writes the buffer to the writer, folding the current frame's part of
// it into the running CRC, and returns the first write error.
func (e *Encoder) Flush() error {
	e.crc = crc32.Update(e.crc, crcTable, e.buf[e.mark:])
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf, e.mark = e.buf[:0], 0
	return e.err
}

// Decoder reads little-endian fields from a stream (NewDecoder) or from
// memory (NewBytesDecoder), keeping the count of bytes consumed and, for a
// stream, the CRC-32C of the current frame.  Slices it returns never alias
// its input, and an empty one is nil.
//
// Both read out of buf: the whole input for memory, a 64 KiB window a
// stream refills for stream input.  A stream Decoder folds the bytes it
// consumed into the CRC when it refills the window and when a frame ends or
// begins, not field by field.
type Decoder struct {
	r    io.Reader // nil when decoding from memory
	buf  []byte
	pos  int    // next unread byte of buf
	mark int    // start in buf of the consumed bytes not yet in crc
	size int64  // input length, bounding count fields
	n    int64  // bytes consumed
	crc  uint32 // stream input: CRC-32C of the current frame before mark
	err  error
}

// NewDecoder returns a Decoder reading size bytes from r.  It reads ahead
// up to 64 KiB, so r must hold nothing after the input that anyone else
// reads.
func NewDecoder(r io.Reader, size int64) *Decoder {
	return &Decoder{r: r, buf: make([]byte, 0, chunk), size: size}
}

// NewBytesDecoder returns a Decoder over src, a body whose CRC the caller
// has already checked (ReadSized does).  It keeps no CRC, so Frame is for
// stream Decoders only.
func NewBytesDecoder(src []byte) *Decoder {
	return &Decoder{buf: src, size: int64(len(src))}
}

// Err returns the first error.
func (d *Decoder) Err() error { return d.err }

// Offset returns the number of bytes consumed.
func (d *Decoder) Offset() int64 { return d.n }

// Left returns the number of input bytes not yet consumed.
func (d *Decoder) Left() int64 { return d.size - d.n }

// Failf records an error unless one is already recorded.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// read consumes k bytes.  The result is valid until the next read and reads
// as zeros once an error has been recorded; callers must not modify it.
func (d *Decoder) read(k int) []byte {
	if d.err == nil {
		if k <= len(d.buf)-d.pos {
			p := d.buf[d.pos : d.pos+k]
			d.pos += k
			d.n += int64(k)
			return p
		}
		var p []byte
		var err error
		switch {
		case d.r == nil:
			err = io.ErrUnexpectedEOF
		case k <= chunk:
			if err = d.fill(k); err == nil {
				return d.read(k)
			}
		default:
			p, err = d.readLarge(k)
		}
		if err == nil {
			d.n += int64(k)
			return p
		}
		d.Failf("truncated input at byte %d: %w", d.n, err)
	}
	if k <= len(zeros) {
		return zeros[:k]
	}
	return make([]byte, k)
}

// fold adds the consumed bytes not yet in the CRC to it.
func (d *Decoder) fold() {
	if d.r != nil {
		d.crc = crc32.Update(d.crc, crcTable, d.buf[d.mark:d.pos])
	}
	d.mark = d.pos
}

// fill moves the window's unread bytes to its front and reads until it holds
// at least k of them, or fails with the reader's error (io.EOF at the end of
// the input).
func (d *Decoder) fill(k int) error {
	d.fold()
	d.buf = d.buf[:copy(d.buf[:cap(d.buf)], d.buf[d.pos:])]
	d.pos, d.mark = 0, 0
	for len(d.buf) < k {
		m, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+m]
		if err != nil && len(d.buf) < k {
			return err
		}
	}
	return nil
}

// readLarge reads a field larger than the window into a slice of its own:
// the window's unread bytes, then the rest straight from the reader.
func (d *Decoder) readLarge(k int) ([]byte, error) {
	d.fold()
	p := make([]byte, k)
	c := copy(p, d.buf[d.pos:])
	if _, err := io.ReadFull(d.r, p[c:]); err != nil {
		if err == io.EOF && c > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	d.buf, d.pos, d.mark = d.buf[:0], 0, 0
	d.crc = crc32.Update(d.crc, crcTable, p)
	return p, nil
}

// zeros is what read returns after an error.
var zeros [8]byte

// Raw reads k bytes written by Encoder.Raw.
func (d *Decoder) Raw(k int) string { return string(d.read(k)) }

// Text reads a string written by Encoder.Text.
func (d *Decoder) Text() string { return d.Raw(d.Count(1)) }

// U8 to F64 read the fields Encoder's methods of the same names append.
func (d *Decoder) U8() uint8    { return d.read(1)[0] }
func (d *Decoder) U32() uint32  { return binary.LittleEndian.Uint32(d.read(4)) }
func (d *Decoder) U64() uint64  { return binary.LittleEndian.Uint64(d.read(8)) }
func (d *Decoder) I32() int32   { return int32(d.U32()) }
func (d *Decoder) I64() int64   { return int64(d.U64()) }
func (d *Decoder) Int() int     { return int(d.U64()) }
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a flag, failing on any byte but 0 and 1.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Failf("flag %d at byte %d is neither 0 nor 1", v, d.n-1)
	}
	return v == 1
}

// Count reads a u32 count of elements taking at least elem bytes each and
// fails it when the rest of the input cannot hold them, so a corrupt count
// cannot force a huge allocation.  A count of things the input does not
// spell out element by element (vertices, z) passes elem 0 and is held to
// the whole input's length instead, as a sanity cap.
func (d *Decoder) Count(elem int64) int { return d.bound(uint64(d.U32()), elem) }

// Count64 is Count for a u64 count field.
func (d *Decoder) Count64(elem int64) int { return d.bound(d.U64(), elem) }

// Number reads a u32 written by Encoder.Count that sizes no allocation here,
// so it is held only to the int32 range.
func (d *Decoder) Number() int { return d.bound(uint64(d.U32()), -1) }

func (d *Decoder) bound(v uint64, elem int64) int {
	limit := int64(math.MaxInt32)
	switch {
	case elem > 0:
		limit = (d.size - d.n) / elem
	case elem == 0:
		limit = d.size
	}
	if v > uint64(max(limit, 0)) || v > math.MaxInt32 {
		d.Failf("count %d before byte %d exceeds what the %d-byte input can hold", v, d.n, d.size)
		return 0
	}
	return int(v)
}

// GetIDs reads n i32s written by PutIDs into a fresh slice, nil for n = 0.
func GetIDs[T ~int32](d *Decoder, n int) []T {
	if n == 0 {
		return nil
	}
	return AppendIDs(d, make([]T, 0, n), n)
}

// AppendIDs reads n i32s written by PutIDs and appends them to dst, so a
// caller can decode many id lists into one reused buffer.
func AppendIDs[T ~int32](d *Decoder, dst []T, n int) []T {
	dst = slices.Grow(dst, n)
	for done := 0; done < n; {
		m := min(n-done, chunk/4)
		p := d.read(4 * m)
		for i := range m {
			dst = append(dst, T(binary.LittleEndian.Uint32(p[4*i:])))
		}
		done += m
	}
	return dst
}

// GetF64s reads n f64s written by PutF64s into a fresh slice, nil for n = 0.
func GetF64s(d *Decoder, n int) []float64 {
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for done := 0; done < n; {
		m := min(n-done, chunk/8)
		p := d.read(8 * m)
		for i := range vs[done : done+m] {
			vs[done+i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
		done += m
	}
	return vs
}

// BeginFrame starts a frame here, discarding the CRC of the bytes read since
// the previous frame ended (a header outside any frame, say).
func (d *Decoder) BeginFrame() { d.crc, d.mark = 0, d.pos }

// Frame ends a frame: it reads the CRC-32C trailer, checks it against the
// bytes read since the previous frame ended, and starts the next frame.
func (d *Decoder) Frame() {
	d.fold()
	want := d.crc
	if got := d.U32(); got != want {
		d.Failf("checksum mismatch at byte %d: stored %08x, computed %08x", d.n-4, got, want)
	}
	d.BeginFrame()
}

// errSizedTooBig is the error ReadSized returns for a sized frame whose
// count exceeds maxSized.
var errSizedTooBig = errors.New("codec: sized frame exceeds the size limit")

// ReadSized reads one sized frame from r into buf, checks its CRC and returns
// its body, which reuses buf's storage.  A clean end of input before the
// frame is io.EOF.  The body buffer grows with the bytes actually read, so a
// count that lies costs at most what the peer sent.
func ReadSized(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], 4)[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], err
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n > maxSized {
		return buf[:0], fmt.Errorf("%w: %d bytes", errSizedTooBig, n)
	}
	sum := crc32.Checksum(buf, crcTable)
	buf = buf[:0] // the body and its CRC overwrite the count
	for need := n + 4; len(buf) < need; {
		step := min(need-len(buf), chunk)
		buf = slices.Grow(buf, step)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf[:0], fmt.Errorf("codec: sized frame of %d bytes: %w", n, err)
		}
	}
	sum = crc32.Update(sum, crcTable, buf[:n])
	if got := binary.LittleEndian.Uint32(buf[n:]); got != sum {
		return buf[:0], fmt.Errorf("codec: sized frame checksum mismatch: stored %08x, computed %08x", got, sum)
	}
	return buf[:n], nil
}

// Weights appends a weight-batch payload:
// u32 count | count × (i32 edge | f64 weight).
func (e *Encoder) Weights(batch []graph.WeightUpdate) {
	e.Count(len(batch))
	for _, u := range batch {
		e.I32(int32(u.Edge))
		e.F64(u.NewWeight)
	}
}

// Weights reads a weight-batch payload (nil for an empty batch).
func (d *Decoder) Weights() []graph.WeightUpdate {
	n := d.Count(12)
	if n == 0 {
		return nil
	}
	batch := make([]graph.WeightUpdate, n)
	for i := range batch {
		batch[i] = graph.WeightUpdate{Edge: graph.EdgeID(d.I32()), NewWeight: d.F64()}
	}
	return batch
}

// Topology appends a topology-batch payload: u32 addVertices
// | u32 nIns,  nIns × (i32 u | i32 v | f64 weight)
// | u32 nDelE, nDelE × i32 edge | u32 nDelV, nDelV × i32 vertex.
func (e *Encoder) Topology(up graph.TopologyUpdate) {
	e.Count(up.AddVertices)
	e.Count(len(up.InsertEdges))
	for _, ed := range up.InsertEdges {
		e.I32(int32(ed.U))
		e.I32(int32(ed.V))
		e.F64(ed.Weight)
	}
	e.Count(len(up.DeleteEdges))
	PutIDs(e, up.DeleteEdges)
	e.Count(len(up.DeleteVertices))
	PutIDs(e, up.DeleteVertices)
}

// Topology reads a topology-batch payload.  addVertices sizes nothing the
// decoder allocates, so it is held only to the int32 range (the graph checks
// it when the batch is applied).  Go evaluates the calls in a composite
// literal left to right, so fields are read in the order they are written.
func (d *Decoder) Topology() *graph.TopologyUpdate {
	up := &graph.TopologyUpdate{AddVertices: d.Number()}
	if n := d.Count(16); n > 0 {
		up.InsertEdges = make([]graph.Edge, n)
		for i := range up.InsertEdges {
			up.InsertEdges[i] = graph.Edge{U: graph.VertexID(d.I32()), V: graph.VertexID(d.I32()), Weight: d.F64()}
		}
	}
	up.DeleteEdges = GetIDs[graph.EdgeID](d, d.Count(4))
	up.DeleteVertices = GetIDs[graph.VertexID](d, d.Count(4))
	return up
}
