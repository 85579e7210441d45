// Record storage: the tracer's attribute arena and intern tables.
//
// A large run records hundreds of thousands of spans, most carrying two
// to four attributes. Storing each record's attributes as its own []Attr
// cost an allocation per record, 48 bytes per attribute, and a copy at
// every End/Annotate that grew the slice. Instead every attribute is a
// 16-byte attrRec in one tracer-owned arena: keys and string values are
// interned per tracer, numbers stay raw, and a record's attributes form
// a chain linked by arena index, so End and Annotate link new attributes
// after the chain's last one without copying the old ones. The arena
// grows in fixed pages and never re-copies; attrRec holds no Go
// pointers, so the garbage collector never scans it.
package trace

// attrRec is one attribute in the arena.
type attrRec struct {
	val  uint64 // int value, float64 bits, or interned string index
	key  uint32 // interned key index << 2 | kind
	next uint32 // arena index of the chain's next attribute; 0 ends it
}

const (
	attrPageBits = 10
	attrPageLen  = 1 << attrPageBits
	attrPageMask = attrPageLen - 1
)

// label is an interned (category, name) pair.
type label struct{ cat, name string }

// store is one tracer's attribute arena and intern tables. Arena index
// 0 is the nil link, so a record with no attributes has head 0.
type store struct {
	pages    []*[attrPageLen]attrRec
	n        uint32 // next free arena index
	strs     []string
	strIdx   map[string]uint32
	labels   []label
	labelIdx map[label]uint32
}

func newStore() store {
	return store{n: 1, strIdx: make(map[string]uint32), labelIdx: make(map[label]uint32)}
}

// intern returns the index of s in the string table, adding it if new.
func (st *store) intern(s string) uint32 {
	if i, ok := st.strIdx[s]; ok {
		return i
	}
	i := uint32(len(st.strs))
	st.strs = append(st.strs, s)
	st.strIdx[s] = i
	return i
}

// label returns the index of the (cat, name) pair, adding it if new.
func (st *store) label(cat, name string) uint32 {
	l := label{cat, name}
	if i, ok := st.labelIdx[l]; ok {
		return i
	}
	i := uint32(len(st.labels))
	st.labels = append(st.labels, l)
	st.labelIdx[l] = i
	return i
}

func (st *store) rec(i uint32) *attrRec {
	return &st.pages[i>>attrPageBits][i&attrPageMask]
}

// push stores attrs as a fresh chain and returns its first arena index
// (0 when attrs is empty). attrs does not escape.
func (st *store) push(attrs []Attr) (head uint32) {
	for i, a := range attrs {
		idx := st.n
		if int(idx>>attrPageBits) == len(st.pages) {
			st.pages = append(st.pages, new([attrPageLen]attrRec))
		}
		st.n++
		r := st.rec(idx)
		r.key = st.intern(a.Key)<<2 | uint32(a.kind)
		if a.kind == attrStr {
			r.val = uint64(st.intern(a.str))
		} else {
			r.val = uint64(a.num)
		}
		r.next = 0
		if i > 0 {
			st.rec(idx - 1).next = idx
		} else {
			head = idx
		}
	}
	return head
}

// extend links attrs after the chain from head, found by walking it
// (records keep no tail; chains hold a handful of attributes), and
// returns the chain's head.
func (st *store) extend(head uint32, attrs []Attr) uint32 {
	h := st.push(attrs)
	if head == 0 || h == 0 {
		return head | h
	}
	tail := st.rec(head)
	for tail.next != 0 {
		tail = st.rec(tail.next)
	}
	tail.next = h
	return head
}

// attr decodes one arena record.
func (st *store) attr(r *attrRec) Attr {
	a := Attr{Key: st.strs[r.key>>2], kind: uint8(r.key & 3)}
	if a.kind == attrStr {
		a.str = st.strs[r.val]
	} else {
		a.num = int64(r.val)
	}
	return a
}

// last returns the last record in the chain from head whose key is key.
func (st *store) last(head uint32, key string) *attrRec {
	if head == 0 {
		return nil
	}
	k, ok := st.strIdx[key]
	if !ok {
		return nil
	}
	var found *attrRec
	for i := head; i != 0; {
		r := st.rec(i)
		if r.key>>2 == k {
			found = r
		}
		i = r.next
	}
	return found
}

// value formats the last attribute with the given key, "" when absent.
func (st *store) value(head uint32, key string) string {
	r := st.last(head, key)
	if r == nil {
		return ""
	}
	return st.attr(r).Value()
}

// intValue returns the last attribute with the given key when it is an
// integer attribute.
func (st *store) intValue(head uint32, key string) (int64, bool) {
	r := st.last(head, key)
	if r == nil || uint8(r.key&3) != attrInt {
		return 0, false
	}
	return int64(r.val), true
}

// attrMap flattens the chain from head for export; on duplicate keys
// the last write wins, matching Span.Attr. nil for an empty chain.
func (st *store) attrMap(head uint32) map[string]string {
	if head == 0 {
		return nil
	}
	m := make(map[string]string)
	for i := head; i != 0; {
		r := st.rec(i)
		m[st.strs[r.key>>2]] = st.attr(r).Value()
		i = r.next
	}
	return m
}
