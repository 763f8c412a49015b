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
	"strconv"
	"strings"
	"time"
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
	db.Queries++
	fields := strings.Fields(q)
	if len(fields) == 0 {
		return nil, db.Costs.PerQuery, ErrBadQuery
	}
	write := fields[0] == "bid" || fields[0] == "sell" || fields[0] == "register"
	if db.CacheEnabled && !write {
		cost += db.Costs.CacheLookup
		if cached, ok := db.cache[q]; ok {
			db.CacheHits++
			return cached, cost, nil
		}
		db.CacheMisses++
	}
	var rows int
	cost += db.Costs.PerQuery
	switch fields[0] {
	case "home":
		result, rows = db.qHome()
	case "browse", "search":
		if len(fields) != 3 {
			return nil, cost, ErrBadQuery
		}
		cat, e1 := strconv.Atoi(fields[1])
		page, e2 := strconv.Atoi(fields[2])
		if e1 != nil || e2 != nil {
			return nil, cost, ErrBadQuery
		}
		deep := fields[0] == "search" // search scans the whole category
		result, rows, err = db.qBrowse(cat, page, deep)
	case "item":
		result, rows, err = db.qOneArg(fields, db.qItem)
	case "bids":
		result, rows, err = db.qOneArg(fields, db.qBids)
	case "user":
		result, rows, err = db.qOneArg(fields, db.qUser)
	case "about":
		result, rows, err = db.qOneArg(fields, db.qAbout)
	case "bid":
		if len(fields) != 4 {
			return nil, cost, ErrBadQuery
		}
		item, e1 := strconv.Atoi(fields[1])
		user, e2 := strconv.Atoi(fields[2])
		amount, e3 := strconv.Atoi(fields[3])
		if e1 != nil || e2 != nil || e3 != nil {
			return nil, cost, ErrBadQuery
		}
		result, rows, err = db.qPlaceBid(item, user, amount)
	case "sell":
		if len(fields) != 4 {
			return nil, cost, ErrBadQuery
		}
		seller, e1 := strconv.Atoi(fields[1])
		cat, e2 := strconv.Atoi(fields[2])
		price, e3 := strconv.Atoi(fields[3])
		if e1 != nil || e2 != nil || e3 != nil {
			return nil, cost, ErrBadQuery
		}
		result, rows, err = db.qSell(seller, cat, price)
	case "register":
		if len(fields) != 2 {
			return nil, cost, ErrBadQuery
		}
		result, rows = db.qRegister(fields[1])
	default:
		return nil, cost, ErrBadQuery
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
		return nil, cost, err
	}
	if db.CacheEnabled && !write {
		db.cache[q] = result
	}
	return result, cost, nil
}

func (db *Database) qOneArg(fields []string, fn func(int) ([]byte, int, error)) ([]byte, int, error) {
	if len(fields) != 2 {
		return nil, 0, ErrBadQuery
	}
	id, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, 0, ErrBadQuery
	}
	return fn(id)
}

func (db *Database) qHome() ([]byte, int) {
	var b strings.Builder
	for c := 0; c < NumCategories; c++ {
		fmt.Fprintf(&b, "category %d: %d items\n", c, len(db.byCat[c]))
	}
	return []byte(b.String()), NumCategories
}

const pageSize = 20

func (db *Database) qBrowse(cat, page int, deep bool) ([]byte, int, error) {
	if cat < 0 || cat >= NumCategories || page < 0 {
		return nil, 0, ErrNotFound
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
	var b strings.Builder
	for _, id := range ids[start:end] {
		it := db.items[id]
		fmt.Fprintf(&b, "%d|%s|%d|%d|%s\n", it.ID, it.Name, it.Price, it.NumBids, it.Description)
	}
	rows := end - start
	if deep {
		rows = len(ids) // full scan for search (no index on keywords)
	}
	return []byte(b.String()), rows, nil
}

func (db *Database) qItem(id int) ([]byte, int, error) {
	if id < 0 || id >= len(db.items) {
		return nil, 1, ErrNotFound
	}
	it := db.items[id]
	seller := db.users[it.Seller]
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%s|%d|%d\n%s\nseller: %s (rating %d)\n",
		it.ID, it.Name, it.Price, it.NumBids, it.Description, seller.Nick, seller.Rating)
	return []byte(b.String()), 2 + it.NumBids, nil
}

func (db *Database) qBids(id int) ([]byte, int, error) {
	if id < 0 || id >= len(db.items) {
		return nil, 1, ErrNotFound
	}
	bids := db.bids[id]
	var b strings.Builder
	for _, bd := range bids {
		fmt.Fprintf(&b, "%d|%s|%d\n", bd.ID, db.users[bd.User].Nick, bd.Amount)
	}
	return []byte(b.String()), 1 + len(bids), nil
}

func (db *Database) qUser(id int) ([]byte, int, error) {
	if id < 0 || id >= len(db.users) {
		return nil, 1, ErrNotFound
	}
	u := db.users[id]
	cs := db.comments[id]
	var b strings.Builder
	fmt.Fprintf(&b, "%s|rating %d|%d comments\n", u.Nick, u.Rating, len(cs))
	for _, c := range cs {
		fmt.Fprintf(&b, "from %d: %s\n", c.From, c.Text)
	}
	return []byte(b.String()), 1 + len(cs), nil
}

func (db *Database) qAbout(id int) ([]byte, int, error) {
	if id < 0 || id >= len(db.users) {
		return nil, 1, ErrNotFound
	}
	// "About me": the user's items, bids and comments — the heavy join.
	var b strings.Builder
	rows := 1
	for _, it := range db.items {
		if it.Seller == id {
			fmt.Fprintf(&b, "selling %d|%s|%d\n", it.ID, it.Name, it.Price)
		}
		rows++
	}
	for _, cs := range db.comments[id] {
		fmt.Fprintf(&b, "comment from %d\n", cs.From)
		rows++
	}
	return []byte(b.String()), rows, nil
}

func (db *Database) qPlaceBid(item, user, amount int) ([]byte, int, error) {
	if item < 0 || item >= len(db.items) || user < 0 || user >= len(db.users) {
		return nil, 1, ErrNotFound
	}
	it := &db.items[item]
	if amount <= it.Price {
		return []byte("rejected: bid too low\n"), 2, nil
	}
	db.nextBid++
	db.bids[item] = append(db.bids[item], Bid{
		ID: db.nextBid, Item: item, User: user, Amount: amount,
	})
	it.Price = amount
	it.NumBids++
	return []byte(fmt.Sprintf("accepted bid %d\n", db.nextBid)), 3, nil
}

// qSell lists a new item for seller in cat at the starting price.
func (db *Database) qSell(seller, cat, price int) ([]byte, int, error) {
	if seller < 0 || seller >= len(db.users) || cat < 0 || cat >= NumCategories || price <= 0 {
		return nil, 1, ErrNotFound
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
	return []byte(fmt.Sprintf("listed item %d\n", id)), 3, nil
}

// qRegister creates a user account.
func (db *Database) qRegister(nick string) ([]byte, int) {
	id := len(db.users)
	db.users = append(db.users, User{ID: id, Nick: nick})
	return []byte(fmt.Sprintf("registered user %d\n", id)), 2
}
