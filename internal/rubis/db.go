// Package rubis implements the multi-tier auction web service the paper
// benchmarks: an in-memory relational database modeled on the RUBiS
// schema (users, items, bids, comments), a MySQL-style query cache, a web
// tier issuing database queries per HTTP request, and the RUBiS browse
// request mix. CPU costs are expressed in reference-core time and charged
// to the serving VM by the server loops.
package rubis

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// Schema sizes for the populated dataset.
const NumCategories = 20

// Errors returned by the query engine.
var (
	ErrBadQuery = errors.New("rubis: malformed query")
	ErrNotFound = errors.New("rubis: no such row")
)

// User is one registered bidder/seller.
type User struct {
	ID     int
	Nick   string
	Rating int
}

// Item is one auction listing.
type Item struct {
	ID          int
	Category    int
	Seller      int
	Name        string
	Description string
	Price       int // current highest bid, cents
	NumBids     int
}

// Bid is one bid on an item.
type Bid struct {
	ID     int
	Item   int
	User   int
	Amount int
}

// Comment is user feedback.
type Comment struct {
	ID       int
	From, To int
	Text     string
}

// CostModel prices query execution on the reference core.
type CostModel struct {
	// PerQuery is the fixed parse/plan/dispatch cost.
	PerQuery time.Duration
	// PerRow is charged per row touched by the executor.
	PerRow time.Duration
	// CacheLookup is the cost of a query-cache probe (hit or miss).
	CacheLookup time.Duration
}

// DefaultCosts approximates MySQL 5.1 on the reference core.
var DefaultCosts = CostModel{
	PerQuery:    6 * time.Millisecond,
	PerRow:      120 * time.Microsecond,
	CacheLookup: 40 * time.Microsecond,
}

// Database is the in-memory store.
type Database struct {
	users    []User
	items    []Item
	byCat    [][]int // item ids per category
	bids     map[int][]Bid
	comments map[int][]Comment // by recipient
	nextBid  int

	Costs        CostModel
	CacheEnabled bool
	cache        map[string][]byte

	// Stats.
	Queries, Writes, CacheHits, CacheMisses uint64
}

// Populate builds a deterministic dataset: nUsers users and nItems items
// spread over NumCategories categories, each item carrying a handful of
// bids and each user some comments (mirroring the RUBiS generator).
func Populate(seed int64, nUsers, nItems int) *Database {
	rng := rand.New(rand.NewSource(seed))
	db := &Database{
		bids:     make(map[int][]Bid),
		comments: make(map[int][]Comment),
		byCat:    make([][]int, NumCategories),
		Costs:    DefaultCosts,
		cache:    make(map[string][]byte),
	}
	for i := 0; i < nUsers; i++ {
		db.users = append(db.users, User{
			ID:     i,
			Nick:   fmt.Sprintf("user%d", i),
			Rating: rng.Intn(1000),
		})
	}
	for i := 0; i < nItems; i++ {
		cat := rng.Intn(NumCategories)
		it := Item{
			ID:          i,
			Category:    cat,
			Seller:      rng.Intn(nUsers),
			Name:        fmt.Sprintf("item %d in category %d", i, cat),
			Description: strings.Repeat(fmt.Sprintf("lot %d detail; ", i), 20),
			Price:       100 + rng.Intn(100000),
		}
		nb := rng.Intn(8)
		for b := 0; b < nb; b++ {
			db.nextBid++
			amount := it.Price + (b+1)*rng.Intn(500)
			db.bids[i] = append(db.bids[i], Bid{
				ID: db.nextBid, Item: i, User: rng.Intn(nUsers), Amount: amount,
			})
			it.Price = amount
			it.NumBids++
		}
		db.items = append(db.items, it)
		db.byCat[cat] = append(db.byCat[cat], i)
	}
	for i := 0; i < nUsers/2; i++ {
		to := rng.Intn(nUsers)
		db.comments[to] = append(db.comments[to], Comment{
			ID: i, From: rng.Intn(nUsers), To: to,
			Text: "great transaction, highly recommended",
		})
	}
	return db
}

// NumItems reports the item count.
func (db *Database) NumItems() int { return len(db.items) }

// NumUsers reports the user count.
func (db *Database) NumUsers() int { return len(db.users) }

// Execute runs one query and returns the result payload plus the CPU cost
// the caller must charge. Query grammar (whitespace-separated):
//
//	home
//	browse <cat> <page>
//	item <id>
//	bids <id>
//	user <id>
//	search <cat> <page>
//	about <userid>
//	bid <item> <user> <amount>
//	sell <seller> <cat> <price>
//	register <nick>
func (db *Database) Execute(q string) (result []byte, cost time.Duration, err error) {
	return db.ExecuteAppend(nil, q)
}

// ExecuteAppend is Execute appending the result to dst. On error it
// returns dst unchanged.
func (db *Database) ExecuteAppend(dst []byte, q string) (result []byte, cost time.Duration, err error) {
	db.Queries++
	var arr [4]string
	fields := appendFields(arr[:0], q)
	if len(fields) == 0 {
		return dst, db.Costs.PerQuery, ErrBadQuery
	}
	write := fields[0] == "bid" || fields[0] == "sell" || fields[0] == "register"
	if db.CacheEnabled && !write {
		cost += db.Costs.CacheLookup
		if cached, ok := db.cache[q]; ok {
			db.CacheHits++
			return append(dst, cached...), cost, nil
		}
		db.CacheMisses++
	}
	var rows int
	cost += db.Costs.PerQuery
	out := dst
	switch fields[0] {
	case "home":
		out, rows = db.qHome(dst)
	case "browse", "search":
		if len(fields) != 3 {
			return dst, cost, ErrBadQuery
		}
		cat, e1 := strconv.Atoi(fields[1])
		page, e2 := strconv.Atoi(fields[2])
		if e1 != nil || e2 != nil {
			return dst, cost, ErrBadQuery
		}
		deep := fields[0] == "search" // search scans the whole category
		out, rows, err = db.qBrowse(dst, cat, page, deep)
	case "item":
		out, rows, err = db.qOneArg(dst, fields, db.qItem)
	case "bids":
		out, rows, err = db.qOneArg(dst, fields, db.qBids)
	case "user":
		out, rows, err = db.qOneArg(dst, fields, db.qUser)
	case "about":
		out, rows, err = db.qOneArg(dst, fields, db.qAbout)
	case "bid":
		if len(fields) != 4 {
			return dst, cost, ErrBadQuery
		}
		item, e1 := strconv.Atoi(fields[1])
		user, e2 := strconv.Atoi(fields[2])
		amount, e3 := strconv.Atoi(fields[3])
		if e1 != nil || e2 != nil || e3 != nil {
			return dst, cost, ErrBadQuery
		}
		out, rows, err = db.qPlaceBid(dst, item, user, amount)
	case "sell":
		if len(fields) != 4 {
			return dst, cost, ErrBadQuery
		}
		seller, e1 := strconv.Atoi(fields[1])
		cat, e2 := strconv.Atoi(fields[2])
		price, e3 := strconv.Atoi(fields[3])
		if e1 != nil || e2 != nil || e3 != nil {
			return dst, cost, ErrBadQuery
		}
		out, rows, err = db.qSell(dst, seller, cat, price)
	case "register":
		if len(fields) != 2 {
			return dst, cost, ErrBadQuery
		}
		out, rows = db.qRegister(dst, fields[1])
	default:
		return dst, cost, ErrBadQuery
	}
	if write {
		db.Writes++
		// A write invalidates the query cache (MySQL invalidates all
		// cached queries touching the written tables; writes here touch
		// items/bids/users, which nearly everything reads).
		if db.CacheEnabled {
			db.cache = make(map[string][]byte)
		}
	}
	cost += time.Duration(rows) * db.Costs.PerRow
	if err != nil {
		return dst, cost, err
	}
	if db.CacheEnabled && !write {
		db.cache[q] = slices.Clone(out[len(dst):])
	}
	return out, cost, nil
}

// appendFields is strings.Fields appending to dst.
func appendFields(dst []string, s string) []string {
	for {
		s = strings.TrimLeftFunc(s, unicode.IsSpace)
		if s == "" {
			return dst
		}
		i := strings.IndexFunc(s, unicode.IsSpace)
		if i < 0 {
			return append(dst, s)
		}
		dst, s = append(dst, s[:i]), s[i:]
	}
}

func (db *Database) qOneArg(dst []byte, fields []string, fn func([]byte, int) ([]byte, int, error)) ([]byte, int, error) {
	if len(fields) != 2 {
		return dst, 0, ErrBadQuery
	}
	id, err := strconv.Atoi(fields[1])
	if err != nil {
		return dst, 0, ErrBadQuery
	}
	return fn(dst, id)
}

// appendInt is strconv.AppendInt for an int.
func appendInt(b []byte, n int) []byte { return strconv.AppendInt(b, int64(n), 10) }

func (db *Database) qHome(b []byte) ([]byte, int) {
	for c := 0; c < NumCategories; c++ {
		b = append(b, "category "...)
		b = appendInt(b, c)
		b = append(b, ": "...)
		b = appendInt(b, len(db.byCat[c]))
		b = append(b, " items\n"...)
	}
	return b, NumCategories
}

const pageSize = 20

func (db *Database) qBrowse(b []byte, cat, page int, deep bool) ([]byte, int, error) {
	if cat < 0 || cat >= NumCategories || page < 0 {
		return b, 0, ErrNotFound
	}
	ids := db.byCat[cat]
	start := page * pageSize
	if start >= len(ids) {
		start = 0
	}
	end := start + pageSize
	if end > len(ids) {
		end = len(ids)
	}
	for _, id := range ids[start:end] {
		it := &db.items[id]
		b = appendInt(b, it.ID)
		b = append(b, '|')
		b = append(b, it.Name...)
		b = append(b, '|')
		b = appendInt(b, it.Price)
		b = append(b, '|')
		b = appendInt(b, it.NumBids)
		b = append(b, '|')
		b = append(b, it.Description...)
		b = append(b, '\n')
	}
	rows := end - start
	if deep {
		rows = len(ids) // full scan for search (no index on keywords)
	}
	return b, rows, nil
}

func (db *Database) qItem(b []byte, id int) ([]byte, int, error) {
	if id < 0 || id >= len(db.items) {
		return b, 1, ErrNotFound
	}
	it := &db.items[id]
	seller := &db.users[it.Seller]
	b = appendInt(b, it.ID)
	b = append(b, '|')
	b = append(b, it.Name...)
	b = append(b, '|')
	b = appendInt(b, it.Price)
	b = append(b, '|')
	b = appendInt(b, it.NumBids)
	b = append(b, '\n')
	b = append(b, it.Description...)
	b = append(b, "\nseller: "...)
	b = append(b, seller.Nick...)
	b = append(b, " (rating "...)
	b = appendInt(b, seller.Rating)
	b = append(b, ")\n"...)
	return b, 2 + it.NumBids, nil
}

func (db *Database) qBids(b []byte, id int) ([]byte, int, error) {
	if id < 0 || id >= len(db.items) {
		return b, 1, ErrNotFound
	}
	bids := db.bids[id]
	for _, bd := range bids {
		b = appendInt(b, bd.ID)
		b = append(b, '|')
		b = append(b, db.users[bd.User].Nick...)
		b = append(b, '|')
		b = appendInt(b, bd.Amount)
		b = append(b, '\n')
	}
	return b, 1 + len(bids), nil
}

func (db *Database) qUser(b []byte, id int) ([]byte, int, error) {
	if id < 0 || id >= len(db.users) {
		return b, 1, ErrNotFound
	}
	u := &db.users[id]
	cs := db.comments[id]
	b = append(b, u.Nick...)
	b = append(b, "|rating "...)
	b = appendInt(b, u.Rating)
	b = append(b, '|')
	b = appendInt(b, len(cs))
	b = append(b, " comments\n"...)
	for _, c := range cs {
		b = append(b, "from "...)
		b = appendInt(b, c.From)
		b = append(b, ": "...)
		b = append(b, c.Text...)
		b = append(b, '\n')
	}
	return b, 1 + len(cs), nil
}

func (db *Database) qAbout(b []byte, id int) ([]byte, int, error) {
	if id < 0 || id >= len(db.users) {
		return b, 1, ErrNotFound
	}
	// "About me": the user's items, bids and comments — the heavy join.
	rows := 1
	for i := range db.items {
		if it := &db.items[i]; it.Seller == id {
			b = append(b, "selling "...)
			b = appendInt(b, it.ID)
			b = append(b, '|')
			b = append(b, it.Name...)
			b = append(b, '|')
			b = appendInt(b, it.Price)
			b = append(b, '\n')
		}
		rows++
	}
	for _, cs := range db.comments[id] {
		b = append(b, "comment from "...)
		b = appendInt(b, cs.From)
		b = append(b, '\n')
		rows++
	}
	return b, rows, nil
}

func (db *Database) qPlaceBid(b []byte, item, user, amount int) ([]byte, int, error) {
	if item < 0 || item >= len(db.items) || user < 0 || user >= len(db.users) {
		return b, 1, ErrNotFound
	}
	it := &db.items[item]
	if amount <= it.Price {
		return append(b, "rejected: bid too low\n"...), 2, nil
	}
	db.nextBid++
	db.bids[item] = append(db.bids[item], Bid{
		ID: db.nextBid, Item: item, User: user, Amount: amount,
	})
	it.Price = amount
	it.NumBids++
	b = append(b, "accepted bid "...)
	return append(appendInt(b, db.nextBid), '\n'), 3, nil
}

// qSell lists a new item for seller in cat at the starting price.
func (db *Database) qSell(b []byte, seller, cat, price int) ([]byte, int, error) {
	if seller < 0 || seller >= len(db.users) || cat < 0 || cat >= NumCategories || price <= 0 {
		return b, 1, ErrNotFound
	}
	id := len(db.items)
	it := Item{
		ID:          id,
		Category:    cat,
		Seller:      seller,
		Name:        fmt.Sprintf("item %d in category %d", id, cat),
		Description: strings.Repeat(fmt.Sprintf("lot %d detail; ", id), 20),
		Price:       price,
	}
	db.items = append(db.items, it)
	db.byCat[cat] = append(db.byCat[cat], id)
	b = append(b, "listed item "...)
	return append(appendInt(b, id), '\n'), 3, nil
}

// qRegister creates a user account.
func (db *Database) qRegister(b []byte, nick string) ([]byte, int) {
	id := len(db.users)
	db.users = append(db.users, User{ID: id, Nick: nick})
	b = append(b, "registered user "...)
	return append(appendInt(b, id), '\n'), 2
}
