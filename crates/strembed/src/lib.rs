//! String-value embedding (Section 5 of the paper).
//!
//! Predicates over string columns ("note NOT LIKE '%(as Metro-Goldwyn-Mayer
//! Pictures)%'") are the hard case for learned estimators: string values are
//! sparse and discrete.  The paper's solution, reproduced here:
//!
//! 1. [`rules`] — a pattern DSL (`PC`, `Pl`, `Pn`, `Ps`, `Pt(T)` with
//!    Prefix/Suffix string functions) that generalizes the query substrings
//!    of the workload, plus candidate-rule generation from (query, value)
//!    pairs (Tables 4 and 5).
//! 2. [`selection`] — greedy set-cover selection of a minimal rule set under
//!    a dictionary-size bound (Algorithm 1).
//! 3. [`skipgram`] — skip-gram (word2vec) pre-training of the dictionary
//!    substrings, using the substrings co-occurring in one tuple as a
//!    sentence, so embeddings carry co-occurrence information.
//! 4. [`trie`] — prefix and suffix tries storing the dictionary with its
//!    vectors, supporting online longest-prefix / longest-suffix lookup.
//! 5. [`encoders`] / [`embedder`] — the encoders of the paper's Table 9
//!    variants this reproduction builds (hash bitmap, embedding with and
//!    without rules) and the end-to-end builder that assembles them from a
//!    database + workload.

pub mod embedder;
pub mod encoders;
pub mod rules;
pub mod selection;
pub mod skipgram;
pub mod trie;

pub use embedder::{build_string_encoder, EmbedderConfig, StringEncoding};
pub use encoders::{EmbeddingEncoder, HashBitmapEncoder, StringEncoder};
pub use rules::{candidate_rules, PatToken, Pattern, Rule, StringFunc};
pub use selection::{select_rules, SelectedRules};
pub use skipgram::{SkipGramConfig, SkipGramModel};
pub use trie::StringTrie;
