// Package ncdf reads and writes a subset of the netCDF classic file
// format (CDF-1), the interchange format of the CMIP5 archive the
// NUMARCK paper evaluates on. The subset covers what checkpoint-style
// numeric data needs: named dimensions, text and double attributes
// (global and per variable), and fixed-shape variables of type
// NC_DOUBLE (NC_FLOAT is accepted on read and widened). Record
// (unlimited) dimensions are not supported — time is written as an
// ordinary leading dimension, which classic netCDF permits and every
// reader understands.
//
// The implementation follows the classic format specification: a
// big-endian header (magic "CDF\x01", numrecs, dimension list,
// attribute list, variable list) followed by each variable's data at
// its recorded byte offset, padded to 4-byte boundaries.
package ncdf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
)

// nc_type constants from the classic specification.
const (
	typeByte   = 1
	typeChar   = 2
	typeShort  = 3
	typeInt    = 4
	typeFloat  = 5
	typeDouble = 6
)

// header list tags.
const (
	tagDimension = 0x0A
	tagVariable  = 0x0B
	tagAttribute = 0x0C
)

// ErrFormat reports a file this subset cannot parse.
var ErrFormat = errors.New("ncdf: unsupported or corrupt file")

// ErrLayout reports an inconsistent in-memory File.
var ErrLayout = errors.New("ncdf: invalid layout")

// Dim is a named dimension.
type Dim struct {
	Name string
	Len  int
}

// Attr is an attribute holding either text or doubles (exactly one).
type Attr struct {
	Name    string
	Text    string
	Doubles []float64
}

// Var is a fixed-shape double variable.
type Var struct {
	Name string
	// DimIDs index into File.Dims, outermost first.
	DimIDs []int
	Attrs  []Attr
	// Data is row-major with the last dimension fastest, length equal
	// to the product of the dimension lengths.
	Data []float64
}

// File is an in-memory netCDF classic dataset.
type File struct {
	Dims        []Dim
	GlobalAttrs []Attr
	Vars        []Var
}

// DimLen returns the length of dimension id.
func (f *File) DimLen(id int) (int, error) {
	if id < 0 || id >= len(f.Dims) {
		return 0, fmt.Errorf("%w: dimension id %d of %d", ErrLayout, id, len(f.Dims))
	}
	return f.Dims[id].Len, nil
}

// VarByName returns the named variable.
func (f *File) VarByName(name string) (*Var, error) {
	for i := range f.Vars {
		if f.Vars[i].Name == name {
			return &f.Vars[i], nil
		}
	}
	return nil, fmt.Errorf("%w: no variable %q", ErrLayout, name)
}

// Shape returns a variable's dimension lengths.
func (f *File) Shape(v *Var) ([]int, error) {
	shape := make([]int, len(v.DimIDs))
	for i, id := range v.DimIDs {
		n, err := f.DimLen(id)
		if err != nil {
			return nil, err
		}
		shape[i] = n
	}
	return shape, nil
}

// Slab returns the contiguous values of v at index `outer` of its
// first dimension — e.g. one timestep of a (time, lat, lon) variable.
func (f *File) Slab(v *Var, outer int) ([]float64, error) {
	shape, err := f.Shape(v)
	if err != nil {
		return nil, err
	}
	if len(shape) == 0 {
		return nil, fmt.Errorf("%w: variable %q is a scalar", ErrLayout, v.Name)
	}
	if outer < 0 || outer >= shape[0] {
		return nil, fmt.Errorf("%w: index %d out of first dimension %d", ErrLayout, outer, shape[0])
	}
	inner := 1
	for _, n := range shape[1:] {
		inner *= n
	}
	return v.Data[outer*inner : (outer+1)*inner], nil
}

// validate checks dimensional consistency before encoding.
func (f *File) validate() error {
	for _, d := range f.Dims {
		if d.Name == "" || d.Len <= 0 {
			return fmt.Errorf("%w: dimension %+v", ErrLayout, d)
		}
	}
	names := map[string]bool{}
	for _, v := range f.Vars {
		if v.Name == "" {
			return fmt.Errorf("%w: unnamed variable", ErrLayout)
		}
		if names[v.Name] {
			return fmt.Errorf("%w: duplicate variable %q", ErrLayout, v.Name)
		}
		names[v.Name] = true
		want := 1
		for _, id := range v.DimIDs {
			n, err := f.DimLen(id)
			if err != nil {
				return fmt.Errorf("variable %q: %w", v.Name, err)
			}
			want *= n
		}
		if len(v.Data) != want {
			return fmt.Errorf("%w: variable %q has %d values, shape wants %d", ErrLayout, v.Name, len(v.Data), want)
		}
		for _, a := range v.Attrs {
			if a.Text != "" && len(a.Doubles) > 0 {
				return fmt.Errorf("%w: attribute %q has both text and doubles", ErrLayout, a.Name)
			}
		}
	}
	for _, a := range f.GlobalAttrs {
		if a.Text != "" && len(a.Doubles) > 0 {
			return fmt.Errorf("%w: attribute %q has both text and doubles", ErrLayout, a.Name)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Encoding

type writer struct {
	buf bytes.Buffer
	err error // first header-field overflow, checked once in Encode
}

func (w *writer) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	w.buf.Write(b[:])
}

// u32i writes an int-valued header field (length, count, id). CDF-1
// header fields are unsigned 32-bit; anything negative or wider
// poisons the writer instead of silently truncating the header.
func (w *writer) u32i(n int) {
	if n < 0 || int64(n) > math.MaxUint32 {
		if w.err == nil {
			w.err = fmt.Errorf("%w: value %d overflows a 32-bit header field", ErrLayout, n)
		}
		return
	}
	// range-checked immediately above
	w.u32(uint32(n))
}

func (w *writer) name(s string) {
	w.u32i(len(s))
	w.buf.WriteString(s)
	for w.buf.Len()%4 != 0 {
		w.buf.WriteByte(0)
	}
}

func (w *writer) attrs(attrs []Attr) {
	if len(attrs) == 0 {
		w.u32(0) // ABSENT
		w.u32(0)
		return
	}
	w.u32(tagAttribute)
	w.u32i(len(attrs))
	for _, a := range attrs {
		w.name(a.Name)
		if len(a.Doubles) > 0 {
			w.u32(typeDouble)
			w.u32i(len(a.Doubles))
			for _, v := range a.Doubles {
				var b [8]byte
				binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
				w.buf.Write(b[:])
			}
			continue
		}
		w.u32(typeChar)
		w.u32i(len(a.Text))
		w.buf.WriteString(a.Text)
		for w.buf.Len()%4 != 0 {
			w.buf.WriteByte(0)
		}
	}
}

// Encode serializes the file to classic CDF-1 bytes.
func (f *File) Encode() ([]byte, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	var w writer
	w.buf.WriteString("CDF\x01")
	w.u32(0) // numrecs: no record dimension in this subset

	// Dimension list.
	if len(f.Dims) == 0 {
		w.u32(0)
		w.u32(0)
	} else {
		w.u32(tagDimension)
		w.u32i(len(f.Dims))
		for _, d := range f.Dims {
			w.name(d.Name)
			w.u32i(d.Len)
		}
	}
	w.attrs(f.GlobalAttrs)

	// Variable list needs data offsets, which depend on the header
	// size; write the header with placeholder offsets first, then
	// patch. Offsets are int32 in CDF-1.
	type varMeta struct {
		beginPos int // position of the begin field in the buffer
		size     int
	}
	metas := make([]varMeta, len(f.Vars))
	if len(f.Vars) == 0 {
		w.u32(0)
		w.u32(0)
	} else {
		w.u32(tagVariable)
		w.u32i(len(f.Vars))
		for i, v := range f.Vars {
			w.name(v.Name)
			w.u32i(len(v.DimIDs))
			for _, id := range v.DimIDs {
				w.u32i(id)
			}
			w.attrs(v.Attrs)
			w.u32(typeDouble)
			size := 8 * len(v.Data)
			w.u32i(size)
			metas[i] = varMeta{beginPos: w.buf.Len(), size: size}
			w.u32(0) // begin placeholder
		}
	}

	// Data section: doubles are 8-byte aligned already; classic
	// format requires each variable padded to a 4-byte boundary
	// (automatic here).
	if w.err != nil {
		return nil, w.err
	}
	out := w.buf.Bytes()
	offset := len(out)
	for i := range f.Vars {
		if offset > math.MaxInt32 {
			return nil, fmt.Errorf("%w: file exceeds CDF-1 2 GiB offset limit", ErrLayout)
		}
		// offset <= math.MaxInt32 checked above
		binary.BigEndian.PutUint32(out[metas[i].beginPos:], uint32(offset))
		offset += metas[i].size
	}
	data := make([]byte, 0, offset)
	data = append(data, out...)
	var b [8]byte
	for _, v := range f.Vars {
		for _, x := range v.Data {
			binary.BigEndian.PutUint64(b[:], math.Float64bits(x))
			data = append(data, b[:]...)
		}
	}
	return data, nil
}

// WriteFile encodes to a file.
func (f *File) WriteFile(path string) error {
	data, err := f.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ---------------------------------------------------------------------
// Decoding

type reader struct {
	data []byte
	pos  int
}

func (r *reader) u32() (uint32, error) {
	if r.pos+4 > len(r.data) {
		return 0, fmt.Errorf("%w: truncated at byte %d", ErrFormat, r.pos)
	}
	v := binary.BigEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) name() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if n > 1<<20 || r.pos+int(n) > len(r.data) {
		return "", fmt.Errorf("%w: name length %d", ErrFormat, n)
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	for r.pos%4 != 0 {
		r.pos++
	}
	if r.pos > len(r.data) {
		return "", fmt.Errorf("%w: padding past end", ErrFormat)
	}
	return s, nil
}

func (r *reader) attrs() ([]Attr, error) {
	tag, err := r.u32()
	if err != nil {
		return nil, err
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	if tag == 0 && count == 0 {
		return nil, nil
	}
	if tag != tagAttribute {
		return nil, fmt.Errorf("%w: expected attribute list, tag %#x", ErrFormat, tag)
	}
	if count > 1<<16 {
		return nil, fmt.Errorf("%w: %d attributes", ErrFormat, count)
	}
	out := make([]Attr, 0, count)
	for i := uint32(0); i < count; i++ {
		name, err := r.name()
		if err != nil {
			return nil, err
		}
		ncType, err := r.u32()
		if err != nil {
			return nil, err
		}
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		a := Attr{Name: name}
		switch ncType {
		case typeChar:
			if r.pos+int(n) > len(r.data) {
				return nil, fmt.Errorf("%w: attribute %q text", ErrFormat, name)
			}
			a.Text = string(r.data[r.pos : r.pos+int(n)])
			r.pos += int(n)
			for r.pos%4 != 0 {
				r.pos++
			}
		case typeDouble:
			if r.pos+8*int(n) > len(r.data) {
				return nil, fmt.Errorf("%w: attribute %q doubles", ErrFormat, name)
			}
			a.Doubles = make([]float64, n)
			for j := range a.Doubles {
				a.Doubles[j] = math.Float64frombits(binary.BigEndian.Uint64(r.data[r.pos:]))
				r.pos += 8
			}
		default:
			// Skip other attribute types (shorts, ints, floats) by
			// size; they are metadata this subset does not need.
			sz := map[uint32]int{typeByte: 1, typeShort: 2, typeInt: 4, typeFloat: 4}[ncType]
			if sz == 0 {
				return nil, fmt.Errorf("%w: attribute %q type %d", ErrFormat, name, ncType)
			}
			total := sz * int(n)
			total = (total + 3) &^ 3
			if r.pos+total > len(r.data) {
				return nil, fmt.Errorf("%w: attribute %q payload", ErrFormat, name)
			}
			r.pos += total
			continue // attribute dropped
		}
		out = append(out, a)
	}
	return out, nil
}

// Decode parses classic CDF-1/CDF-2 bytes. Record variables and
// non-floating variable types are rejected with ErrFormat.
func Decode(data []byte) (*File, error) {
	if len(data) < 8 || data[0] != 'C' || data[1] != 'D' || data[2] != 'F' {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if data[3] != 1 {
		return nil, fmt.Errorf("%w: version %d (only CDF-1 supported)", ErrFormat, data[3])
	}
	r := &reader{data: data, pos: 4}
	numrecs, err := r.u32()
	if err != nil {
		return nil, err
	}
	if numrecs != 0 {
		return nil, fmt.Errorf("%w: record dimensions not supported (numrecs %d)", ErrFormat, numrecs)
	}
	f := &File{}

	// Dimensions.
	tag, err := r.u32()
	if err != nil {
		return nil, err
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	if tag == tagDimension {
		if count > 1<<16 {
			return nil, fmt.Errorf("%w: %d dimensions", ErrFormat, count)
		}
		for i := uint32(0); i < count; i++ {
			name, err := r.name()
			if err != nil {
				return nil, err
			}
			n, err := r.u32()
			if err != nil {
				return nil, err
			}
			if n == 0 {
				return nil, fmt.Errorf("%w: record dimension %q not supported", ErrFormat, name)
			}
			f.Dims = append(f.Dims, Dim{Name: name, Len: int(n)})
		}
	} else if tag != 0 || count != 0 {
		return nil, fmt.Errorf("%w: expected dimension list, tag %#x", ErrFormat, tag)
	}

	if f.GlobalAttrs, err = r.attrs(); err != nil {
		return nil, err
	}

	// Variables.
	tag, err = r.u32()
	if err != nil {
		return nil, err
	}
	count, err = r.u32()
	if err != nil {
		return nil, err
	}
	if tag == 0 && count == 0 {
		return f, nil
	}
	if tag != tagVariable {
		return nil, fmt.Errorf("%w: expected variable list, tag %#x", ErrFormat, tag)
	}
	if count > 1<<16 {
		return nil, fmt.Errorf("%w: %d variables", ErrFormat, count)
	}
	for i := uint32(0); i < count; i++ {
		name, err := r.name()
		if err != nil {
			return nil, err
		}
		ndims, err := r.u32()
		if err != nil {
			return nil, err
		}
		if ndims > 64 {
			return nil, fmt.Errorf("%w: variable %q has %d dimensions", ErrFormat, name, ndims)
		}
		v := Var{Name: name, DimIDs: make([]int, ndims)}
		total := 1
		for d := range v.DimIDs {
			id, err := r.u32()
			if err != nil {
				return nil, err
			}
			if int(id) >= len(f.Dims) {
				return nil, fmt.Errorf("%w: variable %q dimension id %d", ErrFormat, name, id)
			}
			v.DimIDs[d] = int(id)
			total *= f.Dims[id].Len
		}
		if v.Attrs, err = r.attrs(); err != nil {
			return nil, err
		}
		ncType, err := r.u32()
		if err != nil {
			return nil, err
		}
		if _, err = r.u32(); err != nil { // vsize (trust the shape instead)
			return nil, err
		}
		begin, err := r.u32()
		if err != nil {
			return nil, err
		}
		elem := 8
		if ncType == typeFloat {
			elem = 4
		} else if ncType != typeDouble {
			return nil, fmt.Errorf("%w: variable %q type %d (only float/double supported)", ErrFormat, name, ncType)
		}
		end := int(begin) + elem*total
		if int(begin) < 0 || end > len(data) || int(begin) > end {
			return nil, fmt.Errorf("%w: variable %q data [%d,%d) outside file of %d bytes", ErrFormat, name, begin, end, len(data))
		}
		v.Data = make([]float64, total)
		for j := 0; j < total; j++ {
			off := int(begin) + elem*j
			if elem == 8 {
				v.Data[j] = math.Float64frombits(binary.BigEndian.Uint64(data[off:]))
			} else {
				v.Data[j] = float64(math.Float32frombits(binary.BigEndian.Uint32(data[off:])))
			}
		}
		f.Vars = append(f.Vars, v)
	}
	return f, nil
}

// ReadFile decodes a file from disk.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
