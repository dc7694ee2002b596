//! # dirq-analytic — the Section 5 cost model
//!
//! Closed-form costs of flooding vs directed dissemination on complete
//! k-ary trees, as derived in Section 5 of the DirQ paper, plus their
//! generalisation to arbitrary concrete topologies/trees.
//!
//! The published equations are OCR-damaged; the derivations were recovered
//! from the stated assumptions and validated against the paper's worked
//! example (k = 2, d = 4 ⇒ fMax ≈ 0.76):
//!
//! * Unit costs: 1 per transmission, 1 per reception.
//! * **Flooding** (Eq. 3/4): every node broadcasts once (`CTx = N`), every
//!   broadcast is heard by all graph neighbours (`CRx = 2·links`):
//!   `CF = N + 2·links`; on a complete k-ary tree of depth d,
//!   `CF = (3k^(d+1) − 2k − 1)/(k − 1)`.
//! * **Max query dissemination** (Eq. 6): all leaves relevant. Every
//!   forwarding (internal) node transmits the query once; every non-root
//!   node receives it once: `CQDmax = internal + (N − 1)`; closed form
//!   `(k^(d+1) + k^d − k − 1)/(k − 1)`.
//! * **Max update cost** (Eq. 7): every non-root node unicasts one update
//!   to its parent: `CUDmax = 2(N − 1) = 2(k^(d+1) − k)/(k − 1)`.
//! * **Update budget** (Eq. 8/9): `CQDmax + f·CUDmax < CF` ⇒
//!   `fMax = (CF − CQDmax)/CUDmax = (2k^(d+1) − k^d − k)/(2(k^(d+1) − k))`.
//!   For k = 2, d = 4 this is exactly 46/60 = 0.7666…, which the paper
//!   truncates to "0.76". (The paper's companion claim of "1 update every
//!   1.03 queries" is an arithmetic slip: 1/0.7667 ≈ 1.30.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kary;
pub mod topo;

pub use kary::KaryCosts;
pub use topo::TopologyCosts;
