package memo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
)

// The payload codec is a compact binary encoding of the result types cells
// memoize. It is compiled once per Go type by reflection and cached for the
// life of the process, so a Load pays for no type descriptors, only for the
// value. Per kind:
//
//	bool            one byte, 0 or 1
//	signed ints     zigzag uvarint
//	unsigned ints   uvarint
//	float32/64      IEEE 754 bits, 4 or 8 bytes big-endian
//	string          uvarint length, bytes
//	array           each element in order
//	slice           uvarint length, each element; length 0 decodes as nil
//	map             uvarint length, then key/value pairs in ascending order
//	                of the keys' encodings; length 0 decodes as nil
//	struct          each field in declaration order (all must be exported)
//
// Every value has exactly one encoding, so entry bytes are deterministic and
// the decoder accepts only what the encoder writes: it rejects overlong
// varints, integers out of the field's range, bool bytes other than 0 and 1,
// and map keys out of order. Before allocating a slice or map it checks that
// the remaining payload can hold that many elements at their minimum
// encoded size, so a corrupt length cannot allocate beyond what the image
// implies. Any other kind (pointer, interface, func, chan, complex, ...) is
// a Save error, never a silent drop.

type (
	encFn func(b []byte, v reflect.Value) []byte
	decFn func(d *decoder, v reflect.Value)
)

// codec encodes and decodes values of one Go type.
type codec struct {
	enc encFn
	dec decFn
	// min is the fewest payload bytes one value encodes to.
	min int
}

// entryType is everything Load and Save need to know about a result type,
// computed once per type.
type entryType struct {
	sig string
	codec
	// err says why values of the type cannot be stored; nil when they can.
	err error
}

var entryTypes sync.Map // reflect.Type → *entryType

func entryTypeOf(t reflect.Type) *entryType {
	if et, ok := entryTypes.Load(t); ok {
		return et.(*entryType)
	}
	et := &entryType{sig: typeSig(t)}
	et.codec, et.err = compile(t, map[reflect.Type]bool{})
	got, _ := entryTypes.LoadOrStore(t, et)
	return got.(*entryType)
}

// mapKeyKinds are the kinds allowed as map keys: each has one encoding per
// key value, so distinct keys have distinct encodings to sort by.
var mapKeyKinds = map[reflect.Kind]bool{
	reflect.Bool: true, reflect.String: true,
	reflect.Int: true, reflect.Int8: true, reflect.Int16: true, reflect.Int32: true, reflect.Int64: true,
	reflect.Uint: true, reflect.Uint8: true, reflect.Uint16: true, reflect.Uint32: true, reflect.Uint64: true,
}

// compile builds the codec for t. busy holds the composite types being
// compiled further up the stack, to refuse recursive types.
func compile(t reflect.Type, busy map[reflect.Type]bool) (codec, error) {
	switch t.Kind() {
	case reflect.Bool:
		return codec{encBool, decBool, 1}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return codec{encInt, decInt, 1}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return codec{encUint, decUint, 1}, nil
	case reflect.Float32:
		return codec{encFloat32, decFloat32, 4}, nil
	case reflect.Float64:
		return codec{encFloat64, decFloat64, 8}, nil
	case reflect.String:
		return codec{encString, decString, 1}, nil
	case reflect.Array, reflect.Slice, reflect.Map, reflect.Struct:
		if busy[t] {
			return codec{}, fmt.Errorf("recursive type %s", t)
		}
		busy[t] = true
		defer delete(busy, t)
	default:
		return codec{}, fmt.Errorf("unsupported kind %s (%s)", t.Kind(), t)
	}
	switch t.Kind() {
	case reflect.Array:
		return compileArray(t, busy)
	case reflect.Slice:
		return compileSlice(t, busy)
	case reflect.Map:
		return compileMap(t, busy)
	default:
		return compileStruct(t, busy)
	}
}

func compileArray(t reflect.Type, busy map[reflect.Type]bool) (codec, error) {
	elem, err := compile(t.Elem(), busy)
	if err != nil {
		return codec{}, err
	}
	n := t.Len()
	return codec{
		enc: func(b []byte, v reflect.Value) []byte {
			for i := 0; i < n; i++ {
				b = elem.enc(b, v.Index(i))
			}
			return b
		},
		dec: func(d *decoder, v reflect.Value) {
			for i := 0; i < n; i++ {
				elem.dec(d, v.Index(i))
			}
		},
		min: n * elem.min,
	}, nil
}

func compileSlice(t reflect.Type, busy map[reflect.Type]bool) (codec, error) {
	elem, err := compile(t.Elem(), busy)
	if err != nil {
		return codec{}, err
	}
	if elem.min == 0 {
		// A length could then claim any number of elements from no bytes.
		return codec{}, fmt.Errorf("zero-size element type in %s", t)
	}
	return codec{
		enc: func(b []byte, v reflect.Value) []byte {
			n := v.Len()
			b = binary.AppendUvarint(b, uint64(n))
			for i := 0; i < n; i++ {
				b = elem.enc(b, v.Index(i))
			}
			return b
		},
		dec: func(d *decoder, v reflect.Value) {
			n := d.length(elem.min)
			if n == 0 {
				v.SetZero()
				return
			}
			s := reflect.MakeSlice(t, n, n)
			for i := 0; i < n; i++ {
				elem.dec(d, s.Index(i))
			}
			v.Set(s)
		},
		min: 1,
	}, nil
}

func compileMap(t reflect.Type, busy map[reflect.Type]bool) (codec, error) {
	if !mapKeyKinds[t.Key().Kind()] {
		return codec{}, fmt.Errorf("unsupported map key kind %s (%s)", t.Key().Kind(), t)
	}
	key, err := compile(t.Key(), busy)
	if err != nil {
		return codec{}, err
	}
	val, err := compile(t.Elem(), busy)
	if err != nil {
		return codec{}, err
	}
	type pair struct {
		key []byte
		val reflect.Value
	}
	return codec{
		enc: func(b []byte, v reflect.Value) []byte {
			pairs := make([]pair, 0, v.Len())
			for it := v.MapRange(); it.Next(); {
				pairs = append(pairs, pair{key.enc(nil, it.Key()), it.Value()})
			}
			sort.Slice(pairs, func(i, j int) bool { return bytes.Compare(pairs[i].key, pairs[j].key) < 0 })
			b = binary.AppendUvarint(b, uint64(len(pairs)))
			for _, p := range pairs {
				b = val.enc(append(b, p.key...), p.val)
			}
			return b
		},
		dec: func(d *decoder, v reflect.Value) {
			n := d.length(key.min + val.min)
			if n == 0 {
				v.SetZero()
				return
			}
			m := reflect.MakeMapWithSize(t, n)
			var prev []byte
			for i := 0; i < n; i++ {
				start := d.buf
				k := reflect.New(t.Key()).Elem()
				key.dec(d, k)
				if d.bad {
					return
				}
				enc := start[:len(start)-len(d.buf)]
				if i > 0 && bytes.Compare(prev, enc) >= 0 {
					d.fail()
					return
				}
				prev = enc
				e := reflect.New(t.Elem()).Elem()
				val.dec(d, e)
				m.SetMapIndex(k, e)
			}
			v.Set(m)
		},
		min: 1,
	}, nil
}

func compileStruct(t reflect.Type, busy map[reflect.Type]bool) (codec, error) {
	fields := make([]codec, t.NumField())
	least := 0
	for i := range fields {
		f := t.Field(i)
		if !f.IsExported() {
			return codec{}, fmt.Errorf("unexported field %s.%s", t, f.Name)
		}
		c, err := compile(f.Type, busy)
		if err != nil {
			return codec{}, err
		}
		fields[i] = c
		least += c.min
	}
	return codec{
		enc: func(b []byte, v reflect.Value) []byte {
			for i, f := range fields {
				b = f.enc(b, v.Field(i))
			}
			return b
		},
		dec: func(d *decoder, v reflect.Value) {
			for i, f := range fields {
				f.dec(d, v.Field(i))
			}
		},
		min: least,
	}, nil
}

func encBool(b []byte, v reflect.Value) []byte {
	if v.Bool() {
		return append(b, 1)
	}
	return append(b, 0)
}

func decBool(d *decoder, v reflect.Value) {
	c := d.take(1)
	if len(c) == 0 || c[0] > 1 {
		d.fail()
		return
	}
	v.SetBool(c[0] == 1)
}

func encInt(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) }

func decInt(d *decoder, v reflect.Value) {
	u := d.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	if v.OverflowInt(x) {
		d.fail()
		return
	}
	v.SetInt(x)
}

func encUint(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) }

func decUint(d *decoder, v reflect.Value) {
	x := d.uvarint()
	if v.OverflowUint(x) {
		d.fail()
		return
	}
	v.SetUint(x)
}

func encFloat32(b []byte, v reflect.Value) []byte {
	return binary.BigEndian.AppendUint32(b, math.Float32bits(float32(v.Float())))
}

func decFloat32(d *decoder, v reflect.Value) {
	c := d.take(4)
	if len(c) == 0 {
		return
	}
	bits := binary.BigEndian.Uint32(c)
	v.SetFloat(float64(math.Float32frombits(bits)))
	// A signalling NaN is quieted on its way through float64; its bits
	// then re-encode differently, so the image was not written by Save.
	if math.Float32bits(float32(v.Float())) != bits {
		d.fail()
	}
}

func encFloat64(b []byte, v reflect.Value) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float()))
}

func decFloat64(d *decoder, v reflect.Value) {
	if c := d.take(8); len(c) != 0 {
		v.SetFloat(math.Float64frombits(binary.BigEndian.Uint64(c)))
	}
}

func encString(b []byte, v reflect.Value) []byte {
	s := v.String()
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func decString(d *decoder, v reflect.Value) { v.SetString(string(d.take(d.length(1)))) }

// decoder reads one payload. The first malformed read marks it bad and
// empties it, so every later read fails at once without allocating.
type decoder struct {
	buf []byte
	bad bool
}

func (d *decoder) fail() {
	d.bad = true
	d.buf = nil
}

// uvarint reads a minimally encoded uvarint.
func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.buf)
	if n <= 0 || (n > 1 && d.buf[n-1] == 0) {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return x
}

// length reads an element count and checks that the rest of the payload
// can hold that many elements of at least elemMin bytes each.
func (d *decoder) length(elemMin int) int {
	n := d.uvarint()
	if n > uint64(len(d.buf)/elemMin) {
		d.fail()
		return 0
	}
	return int(n)
}

// take returns the next n bytes, or nil when fewer remain.
func (d *decoder) take(n int) []byte {
	if n > len(d.buf) {
		d.fail()
		return nil
	}
	c := d.buf[:n]
	d.buf = d.buf[n:]
	return c
}
