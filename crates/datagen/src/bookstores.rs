//! The AbeBooks-like bookstore corpus of Example 4.1.
//!
//! The paper's real crawl had **876 bookstores, 1263 computer-science books
//! and 24364 listings**; 471 bookstore pairs shared at least the same 10
//! books and were "very likely to be dependent"; the number of distinct
//! author lists per book ranged from 1 to 23 (average ≈ 4); coverage per
//! store ranged from 1 to 1095 books; sampled author-list accuracy per
//! store ranged from 0 to 0.92. We cannot crawl 2008's AbeBooks, so this
//! generator produces a corpus matching those published marginals, with the
//! dependence structure *planted* so detection quality can be scored.
//!
//! Copier clusters are sized so the number of within-cluster pairs equals
//! the paper's 471: cluster sizes `[25, 15, 10, 7]` give
//! `C(25,2)+C(15,2)+C(10,2)+C(7,2) = 300+105+45+21 = 471`.

use std::collections::HashMap;

use rand::seq::SliceRandom;
use rand::Rng as _;
use serde::{Deserialize, Serialize};

use sailing_linkage::authors::{parse_author_list, AuthorList};
use sailing_model::{ClaimStore, ClaimStoreBuilder, ObjectId, SourceId, Value, ValueId};

use crate::zipf;
use crate::Rng;

/// Configuration of the bookstore corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BookCorpusConfig {
    /// Number of bookstores (paper: 876).
    pub num_stores: usize,
    /// Number of books (paper: 1263).
    pub num_books: usize,
    /// Target total listings (paper: 24364).
    pub target_listings: usize,
    /// Maximum books per store (paper: 1095).
    pub max_store_coverage: usize,
    /// Author-list accuracy range across stores (paper: 0 to 0.92).
    pub accuracy_range: (f64, f64),
    /// Copier cluster sizes; within-cluster pairs are the planted
    /// dependences (defaults sum to the paper's 471 pairs).
    pub copier_cluster_sizes: Vec<usize>,
    /// Minimum books every cluster pair shares (paper: 10).
    pub min_shared_books: usize,
    /// Probability a copier re-renders a copied author list in its own
    /// format (same authors, different representation).
    pub reformat_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BookCorpusConfig {
    fn default() -> Self {
        Self {
            num_stores: 876,
            num_books: 1263,
            target_listings: 24_364,
            max_store_coverage: 1_095,
            accuracy_range: (0.0, 0.92),
            copier_cluster_sizes: vec![25, 15, 10, 7],
            min_shared_books: 10,
            reformat_rate: 0.3,
            seed: 2009,
        }
    }
}

impl BookCorpusConfig {
    /// A reduced corpus for tests and quick experiments (1/8 scale,
    /// clusters `[9, 6, 4]` → 36+15+6 = 57 planted pairs).
    pub fn small(seed: u64) -> Self {
        Self {
            num_stores: 110,
            num_books: 160,
            target_listings: 3_000,
            max_store_coverage: 140,
            accuracy_range: (0.0, 0.92),
            copier_cluster_sizes: vec![9, 6, 4],
            min_shared_books: 10,
            reformat_rate: 0.3,
            seed,
        }
    }
}

/// One book with its true bibliographic data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Book {
    /// Book title.
    pub title: String,
    /// The true author list (canonical rendering).
    pub true_authors: Vec<String>,
    /// Publisher.
    pub publisher: String,
    /// Publication year.
    pub year: i64,
}

/// One listing: a store's assertion about a book's authors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Listing {
    /// Store index.
    pub store: usize,
    /// Book index.
    pub book: usize,
    /// The raw author-list string as the store renders it.
    pub authors_raw: String,
    /// Whether the underlying author set is correct (before formatting).
    pub is_correct: bool,
}

/// Summary statistics matching the figures Example 4.1 reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusStats {
    /// Number of stores with at least one listing.
    pub stores: usize,
    /// Number of books with at least one listing.
    pub books: usize,
    /// Total listings.
    pub listings: usize,
    /// Min/mean/max distinct author strings per book.
    pub author_variants: (usize, f64, usize),
    /// Min/max books per store.
    pub coverage: (usize, usize),
    /// Min/max author-list accuracy across stores (sampled on listed books).
    pub accuracy: (f64, f64),
    /// Store pairs sharing at least `min_shared_books` books.
    pub candidate_pairs_min_shared: usize,
}

/// The generated corpus.
#[derive(Debug, Clone)]
pub struct BookCorpus {
    /// Configuration used.
    pub config: BookCorpusConfig,
    /// Books with ground-truth bibliography.
    pub books: Vec<Book>,
    /// Store display names.
    pub store_names: Vec<String>,
    /// Per-store author accuracy (the corruption parameter).
    pub store_accuracy: Vec<f64>,
    /// All listings.
    pub listings: Vec<Listing>,
    /// Planted within-cluster dependent pairs.
    pub planted_pairs: Vec<(SourceId, SourceId)>,
}

const FIRST_NAMES: [&str; 28] = [
    "James", "Mary", "Wei", "Elena", "Rajesh", "Anna", "David", "Laura", "Kenji", "Sara", "Peter",
    "Nadia", "Hugo", "Ines", "Omar", "Julia", "Marco", "Priya", "Ivan", "Grace", "Tomas", "Aisha",
    "Felix", "Noor", "Diego", "Hannah", "Louis", "Mei",
];
const LAST_NAMES: [&str; 32] = [
    "Ullman", "Widom", "Garcia", "Chen", "Kumar", "Rossi", "Novak", "Schmidt", "Tanaka", "Okafor",
    "Johnson", "Martin", "Silva", "Petrov", "Haddad", "Larsen", "Moreau", "Berg", "Costa",
    "Fischer", "Nakamura", "Olsen", "Patel", "Quinn", "Rivera", "Sato", "Tran", "Vargas", "Weiss",
    "Xu", "Yilmaz", "Zhang",
];
const TOPICS: [&str; 18] = [
    "Java",
    "Databases",
    "Compilers",
    "Networks",
    "Algorithms",
    "Operating Systems",
    "Machine Learning",
    "Cryptography",
    "Distributed Systems",
    "Graphics",
    "C++",
    "Python",
    "Information Retrieval",
    "Software Engineering",
    "Data Mining",
    "Computer Architecture",
    "Theory of Computation",
    "Web Programming",
];
const PUBLISHERS: [&str; 8] = [
    "Prentice Hall",
    "Addison-Wesley",
    "O'Reilly",
    "Morgan Kaufmann",
    "Springer",
    "MIT Press",
    "Wiley",
    "McGraw-Hill",
];

fn gen_book(rng: &mut Rng, idx: usize) -> Book {
    let topic = TOPICS[rng.gen_range(0..TOPICS.len())];
    let n_authors = 1 + rng.gen_range(0..4).min(rng.gen_range(0..4)); // skewed toward few
    let mut authors = Vec::with_capacity(n_authors);
    while authors.len() < n_authors {
        let name = format!(
            "{} {}",
            FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
            LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())]
        );
        if !authors.contains(&name) {
            authors.push(name);
        }
    }
    Book {
        title: format!("{topic} in Practice, Vol. {}", idx % 9 + 1),
        true_authors: authors,
        publisher: PUBLISHERS[rng.gen_range(0..PUBLISHERS.len())].to_string(),
        year: rng.gen_range(1990..2009),
    }
}

/// Renders an author list in one of several formats (formatting never
/// changes the underlying authors).
fn render_authors(authors: &[String], format: usize) -> String {
    match format % 4 {
        0 => authors.join("; "),
        1 => authors
            .iter()
            .map(|a| {
                let mut parts = a.rsplitn(2, ' ');
                let last = parts.next().unwrap_or(a);
                let first = parts.next().unwrap_or("");
                if first.is_empty() {
                    last.to_string()
                } else {
                    format!("{last}, {first}")
                }
            })
            .collect::<Vec<_>>()
            .join("; "),
        2 => authors
            .iter()
            .map(|a| {
                let mut parts = a.splitn(2, ' ');
                let first = parts.next().unwrap_or("");
                let rest = parts.next().unwrap_or("");
                if rest.is_empty() {
                    first.to_string()
                } else {
                    format!("{}. {rest}", &first[..1])
                }
            })
            .collect::<Vec<_>>()
            .join("; "),
        _ => {
            if authors.len() == 2 {
                format!("{} and {}", authors[0], authors[1])
            } else {
                authors.join(", ")
            }
        }
    }
}

/// Corrupts the author *set* (not just formatting): drop / add / swap /
/// misspell / reorder. Note that pure misordering is representational to an
/// order-insensitive matcher, so set-changing corruptions dominate.
fn corrupt_authors(rng: &mut Rng, authors: &[String]) -> Vec<String> {
    let mut out: Vec<String> = authors.to_vec();
    match rng.gen_range(0..5) {
        0 if out.len() > 1 => {
            // Missing author.
            let i = rng.gen_range(0..out.len());
            out.remove(i);
        }
        1 => {
            // Added wrong author.
            out.push(format!(
                "{} {}",
                FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
                LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())]
            ));
        }
        2 => {
            // Wrong author replaces a right one.
            let i = rng.gen_range(0..out.len());
            out[i] = format!(
                "{} {}",
                FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
                LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())]
            );
        }
        3 => {
            // Misspelling: perturb one character of a surname.
            let i = rng.gen_range(0..out.len());
            let mut chars: Vec<char> = out[i].chars().collect();
            if let Some(pos) = (1..chars.len()).nth(rng.gen_range(0..chars.len().max(2) - 1)) {
                let c = chars[pos];
                chars[pos] = if c == 'z' {
                    'y'
                } else {
                    ((c as u8) + 1) as char
                };
            }
            out[i] = chars.into_iter().collect();
        }
        _ => {
            // Misordering counts as dirty data in the crawl; the underlying
            // set is wrong only per strict comparison — shuffle plus drop.
            out.reverse();
            if out.len() > 2 {
                out.pop();
            }
        }
    }
    out
}

impl BookCorpus {
    /// Generates the corpus.
    pub fn generate(config: &BookCorpusConfig) -> Self {
        let mut rng = crate::rng(config.seed);
        let books: Vec<Book> = (0..config.num_books)
            .map(|i| gen_book(&mut rng, i))
            .collect();
        let store_names: Vec<String> = (0..config.num_stores)
            .map(|i| format!("store{i:04}"))
            .collect();
        let (lo, hi) = config.accuracy_range;
        let store_accuracy: Vec<f64> = (0..config.num_stores)
            .map(|_| lo + (hi - lo) * rng.gen::<f64>().powf(0.7))
            .collect();

        // Coverage by Zipf, calibrated to the listing target, assigned to
        // stores in shuffled order so store id does not encode coverage.
        // Rounding and the per-store clamp lose ~12% of the mass, so aim
        // slightly high.
        let mut coverage = zipf::coverage_counts(
            config.num_stores,
            1.05,
            config.target_listings + config.target_listings / 8,
            config.max_store_coverage.min(config.num_books),
        );
        coverage.shuffle(&mut rng);

        // Cluster membership: pack clusters from the front of a shuffled
        // store order.
        let mut order: Vec<usize> = (0..config.num_stores).collect();
        order.shuffle(&mut rng);
        let mut cluster_of: Vec<Option<usize>> = vec![None; config.num_stores];
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        let mut cursor = 0usize;
        for (c, &size) in config.copier_cluster_sizes.iter().enumerate() {
            let members: Vec<usize> = order[cursor..cursor + size].to_vec();
            cursor += size;
            for &m in &members {
                cluster_of[m] = Some(c);
            }
            clusters.push(members);
        }

        // Per-cluster shared core of books every member lists identically.
        let mut all_books: Vec<usize> = (0..config.num_books).collect();
        let mut listings: Vec<Listing> = Vec::with_capacity(config.target_listings);
        let mut per_store_books: Vec<Vec<usize>> = vec![Vec::new(); config.num_stores];

        let mut planted_pairs = Vec::new();
        for members in &clusters {
            let leader = members[0];
            all_books.shuffle(&mut rng);
            let core_size = config
                .min_shared_books
                .max(coverage[leader].min(config.num_books) / 2)
                .min(config.num_books);
            let core: Vec<usize> = all_books[..core_size].to_vec();
            // The leader authors the cluster's listings for the core books.
            // Its accuracy is kept in a mid band: the paper's 471 pairs were
            // *identified* as dependent from shared data, which requires the
            // cluster to propagate some mistakes (shared errors are what
            // makes copying observable) while not being pure noise.
            let leader_acc = store_accuracy[leader].clamp(0.3, 0.7);
            let mut core_listings: Vec<(usize, Vec<String>, bool)> = Vec::new();
            for &b in &core {
                let correct = rng.gen::<f64>() < leader_acc;
                let authors = if correct {
                    books[b].true_authors.clone()
                } else {
                    corrupt_authors(&mut rng, &books[b].true_authors)
                };
                core_listings.push((b, authors, correct));
            }
            for &m in members {
                let own_format = rng.gen_range(1..4usize);
                for (b, authors, correct) in &core_listings {
                    // Members copy the leader's rendering verbatim (format 0)
                    // and only occasionally re-render in their house style.
                    let format = if rng.gen::<f64>() < config.reformat_rate {
                        own_format
                    } else {
                        0
                    };
                    listings.push(Listing {
                        store: m,
                        book: *b,
                        authors_raw: render_authors(authors, format),
                        is_correct: *correct,
                    });
                    per_store_books[m].push(*b);
                }
            }
            for (i, &x) in members.iter().enumerate() {
                for &y in &members[i + 1..] {
                    planted_pairs.push((
                        SourceId::from_index(x.min(y)),
                        SourceId::from_index(x.max(y)),
                    ));
                }
            }
        }

        // Independent coverage for everyone (cluster members may add their
        // own books beyond the core, like partial copiers).
        for s in 0..config.num_stores {
            let target = coverage[s];
            let already = per_store_books[s].len();
            if already >= target {
                continue;
            }
            let need = target - already;
            all_books.shuffle(&mut rng);
            let mut added = 0usize;
            for &b in all_books.iter() {
                if added == need {
                    break;
                }
                if per_store_books[s].contains(&b) {
                    continue;
                }
                let correct = rng.gen::<f64>() < store_accuracy[s];
                let authors = if correct {
                    books[b].true_authors.clone()
                } else {
                    corrupt_authors(&mut rng, &books[b].true_authors)
                };
                // Half the market uses the dominant "First Last; ..." style,
                // which keeps the distinct-variant count near the crawl's.
                let format = if rng.gen::<f64>() < 0.5 {
                    0
                } else {
                    rng.gen_range(1..4)
                };
                listings.push(Listing {
                    store: s,
                    book: b,
                    authors_raw: render_authors(&authors, format),
                    is_correct: correct,
                });
                per_store_books[s].push(b);
                added += 1;
            }
        }

        Self {
            config: config.clone(),
            books,
            store_names,
            store_accuracy,
            listings,
            planted_pairs,
        }
    }

    /// Computes the Example 4.1-style summary statistics.
    pub fn stats(&self) -> CorpusStats {
        let mut store_books: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut book_variants: HashMap<usize, std::collections::HashSet<&str>> = HashMap::new();
        let mut store_correct: HashMap<usize, (usize, usize)> = HashMap::new();
        for l in &self.listings {
            store_books.entry(l.store).or_default().push(l.book);
            book_variants
                .entry(l.book)
                .or_default()
                .insert(l.authors_raw.as_str());
            let e = store_correct.entry(l.store).or_insert((0, 0));
            e.1 += 1;
            if l.is_correct {
                e.0 += 1;
            }
        }
        let coverage_min = store_books.values().map(Vec::len).min().unwrap_or(0);
        let coverage_max = store_books.values().map(Vec::len).max().unwrap_or(0);
        let variants: Vec<usize> = book_variants.values().map(|s| s.len()).collect();
        let vmin = variants.iter().copied().min().unwrap_or(0);
        let vmax = variants.iter().copied().max().unwrap_or(0);
        let vmean = if variants.is_empty() {
            0.0
        } else {
            variants.iter().sum::<usize>() as f64 / variants.len() as f64
        };
        let accs: Vec<f64> = store_correct
            .values()
            .map(|&(c, n)| c as f64 / n as f64)
            .collect();
        let amin = accs.iter().copied().fold(f64::INFINITY, f64::min);
        let amax = accs.iter().copied().fold(0.0, f64::max);

        // Pairs sharing >= min_shared_books (the paper's screening count).
        let mut pair_counts: HashMap<(usize, usize), usize> = HashMap::new();
        let mut book_stores: HashMap<usize, Vec<usize>> = HashMap::new();
        for l in &self.listings {
            book_stores.entry(l.book).or_default().push(l.store);
        }
        for stores in book_stores.values() {
            let mut stores = stores.clone();
            stores.sort_unstable();
            stores.dedup();
            for (i, &a) in stores.iter().enumerate() {
                for &b in &stores[i + 1..] {
                    *pair_counts.entry((a, b)).or_insert(0) += 1;
                }
            }
        }
        let candidate_pairs = pair_counts
            .values()
            .filter(|&&c| c >= self.config.min_shared_books)
            .count();

        CorpusStats {
            stores: store_books.len(),
            books: book_variants.len(),
            listings: self.listings.len(),
            author_variants: (vmin, vmean, vmax),
            coverage: (coverage_min, coverage_max),
            accuracy: (amin, amax),
            candidate_pairs_min_shared: candidate_pairs,
        }
    }

    /// Builds the author-list [`ClaimStore`]: object = book, value = the raw
    /// author string (`linked = false`) or, with `linked = true`, a canonical
    /// representative per group of alternative representations (record
    /// linkage applied per book).
    pub fn author_claim_store(&self, linked: bool) -> ClaimStore {
        let mut builder = ClaimStoreBuilder::new();
        for name in &self.store_names {
            builder.source(name);
        }
        for (i, book) in self.books.iter().enumerate() {
            builder.object(&format!("book{i:04}:{}", book.title));
        }
        if !linked {
            for l in &self.listings {
                builder.add(
                    &self.store_names[l.store],
                    &format!("book{:04}:{}", l.book, self.books[l.book].title),
                    Value::text(&l.authors_raw),
                );
            }
            return builder.build();
        }

        // Linked: per book, cluster raw strings by author-list match and
        // replace each with its cluster's most common raw string.
        let mut per_book: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, l) in self.listings.iter().enumerate() {
            per_book.entry(l.book).or_default().push(i);
        }
        let mut book_ids: Vec<usize> = per_book.keys().copied().collect();
        book_ids.sort_unstable();
        for b in book_ids {
            let idxs = &per_book[&b];
            let mut raws: Vec<&str> = idxs
                .iter()
                .map(|&i| self.listings[i].authors_raw.as_str())
                .collect();
            raws.sort_unstable();
            raws.dedup();
            let parsed: Vec<AuthorList> = raws.iter().map(|r| parse_author_list(r)).collect();
            let clusters = sailing_linkage::cluster_values(&parsed, 0.85, |x, y| x.match_score(y));
            // Most frequent raw string per cluster is the canonical form.
            let mut canon_of: HashMap<&str, String> = HashMap::new();
            for cluster in &clusters {
                let mut counts: HashMap<&str, usize> = HashMap::new();
                for &i in idxs {
                    let raw = self.listings[i].authors_raw.as_str();
                    if cluster.iter().any(|&c| raws[c] == raw) {
                        *counts.entry(raw).or_insert(0) += 1;
                    }
                }
                let canonical = counts
                    .iter()
                    .max_by_key(|&(s, c)| (*c, std::cmp::Reverse(*s)))
                    .map(|(s, _)| s.to_string())
                    .unwrap_or_default();
                for &c in cluster {
                    canon_of.insert(raws[c], canonical.clone());
                }
            }
            for &i in idxs {
                let l = &self.listings[i];
                let canonical = canon_of
                    .get(l.authors_raw.as_str())
                    .cloned()
                    .unwrap_or_else(|| l.authors_raw.clone());
                builder.add(
                    &self.store_names[l.store],
                    &format!("book{:04}:{}", l.book, self.books[l.book].title),
                    Value::text(canonical),
                );
            }
        }
        builder.build()
    }

    /// Scores per-book author decisions: a decision is correct when the
    /// chosen value parses to the book's true author list.
    pub fn score_decisions(
        &self,
        store: &ClaimStore,
        decisions: &HashMap<ObjectId, ValueId>,
    ) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (i, book) in self.books.iter().enumerate() {
            let Some(object) = store.object_id(&format!("book{i:04}:{}", book.title)) else {
                continue;
            };
            total += 1;
            let Some(&v) = decisions.get(&object) else {
                continue;
            };
            let Some(Value::Text(raw)) = store.value(v) else {
                continue;
            };
            let truth = parse_author_list(&book.true_authors.join("; "));
            if parse_author_list(raw).same_authors(&truth) {
                correct += 1;
            }
        }
        if total == 0 {
            return 0.0;
        }
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BookCorpus {
        BookCorpus::generate(&BookCorpusConfig::small(1))
    }

    #[test]
    fn default_config_matches_the_paper() {
        let c = BookCorpusConfig::default();
        assert_eq!(c.num_stores, 876);
        assert_eq!(c.num_books, 1263);
        assert_eq!(c.target_listings, 24_364);
        assert_eq!(c.max_store_coverage, 1_095);
        assert_eq!(c.min_shared_books, 10);
        let planted_pairs: usize = c
            .copier_cluster_sizes
            .iter()
            .map(|&k| k * (k - 1) / 2)
            .sum();
        assert_eq!(planted_pairs, 471);
    }

    #[test]
    fn small_corpus_shape() {
        let corpus = small();
        let stats = corpus.stats();
        assert_eq!(stats.stores, 110);
        assert!(stats.books > 140);
        assert!(stats.listings > 2_000);
        assert!(stats.coverage.0 >= 1);
        assert!(stats.accuracy.1 <= 1.0);
        assert!(stats.author_variants.2 >= stats.author_variants.0);
        assert_eq!(corpus.planted_pairs.len(), 57);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = BookCorpus::generate(&BookCorpusConfig::small(1));
        assert_eq!(a.listings.len(), b.listings.len());
        assert_eq!(a.listings[0].authors_raw, b.listings[0].authors_raw);
        assert_eq!(a.planted_pairs, b.planted_pairs);
    }

    #[test]
    fn cluster_members_share_core_books() {
        let corpus = small();
        let mut per_store: HashMap<usize, std::collections::HashSet<usize>> = HashMap::new();
        for l in &corpus.listings {
            per_store.entry(l.store).or_default().insert(l.book);
        }
        for &(a, b) in &corpus.planted_pairs {
            let sa = &per_store[&a.index()];
            let sb = &per_store[&b.index()];
            let shared = sa.intersection(sb).count();
            assert!(
                shared >= corpus.config.min_shared_books,
                "cluster pair {a}-{b} shares only {shared}"
            );
        }
    }

    #[test]
    fn cluster_members_agree_on_core_values() {
        let corpus = small();
        let store = corpus.author_claim_store(false);
        let snap = store.snapshot();
        let (a, b) = corpus.planted_pairs[0];
        let agree = snap.overlap(a, b).filter(|&(_, x, y)| x == y).count();
        let total = snap.overlap_size(a, b);
        assert!(
            agree * 2 >= total,
            "cluster pair should agree on most shared books: {agree}/{total}"
        );
    }

    #[test]
    fn claim_store_roundtrip() {
        let corpus = small();
        let store = corpus.author_claim_store(false);
        assert_eq!(store.num_sources(), 110);
        assert_eq!(store.num_claims(), corpus.listings.len());
    }

    #[test]
    fn linking_reduces_variant_count() {
        let corpus = small();
        let raw = corpus.author_claim_store(false);
        let linked = corpus.author_claim_store(true);
        assert!(
            linked.num_values() < raw.num_values(),
            "linkage should merge representations: {} vs {}",
            linked.num_values(),
            raw.num_values()
        );
    }

    #[test]
    fn truth_scoring_rewards_correct_decisions() {
        let corpus = small();
        let store = corpus.author_claim_store(false);
        // Build oracle decisions: for each book pick any listing value whose
        // underlying set was correct.
        let mut decisions = HashMap::new();
        for l in &corpus.listings {
            if l.is_correct {
                let object = store
                    .object_id(&format!("book{:04}:{}", l.book, corpus.books[l.book].title))
                    .unwrap();
                let v = store.value_id(&Value::text(&l.authors_raw)).unwrap();
                decisions.entry(object).or_insert(v);
            }
        }
        let score = corpus.score_decisions(&store, &decisions);
        assert!(score > 0.85, "oracle decisions score {score}");
    }

    #[test]
    fn accuracy_spread_matches_config() {
        let corpus = small();
        let lo = corpus
            .store_accuracy
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let hi = corpus.store_accuracy.iter().copied().fold(0.0, f64::max);
        assert!(
            lo >= 0.0 && hi <= 0.92 + 1e-9,
            "accuracy range [{lo}, {hi}]"
        );
    }
}
