//! Thread tuples: the live values of one dataflow thread.
//!
//! §II b of the paper: "every thread is simply a set of live values that are
//! kept together in the pipeline". On-chip, each live value travels on its own
//! physical link, but links belonging to one logical edge are consumed in
//! lockstep and merges keep them atomic (§III-B c). We therefore model a
//! logical edge as a stream of *tuples*; physical resource accounting
//! multiplies by the tuple arity.
//!
//! That width is static — a property of the edge, not of the token — so
//! in flight a tuple is a window (`&[Word]`) into its channel's slab
//! ([`crate::Channel`]), and the firing rules never see an owned one. The
//! owned forms here, [`Tuple`] and [`TTok`], are for where a token has to
//! outlive its slot: a host feeding a channel ([`crate::Channel::push`])
//! or reading one ([`crate::Channel::drain_all`]), the wire format, the
//! few tuples a node holds across firings (a broadcast's parent, a fork's
//! payload), and tests.

use revet_sltf::{BarrierLevel, Tok, Word};

/// The live values of one dataflow thread on one logical edge, owned.
pub type Tuple = Vec<Word>;

/// An owned tuple-stream token: one thread's live values, or a barrier Ωn.
pub type TTok = Tok<Tuple>;

/// Builds a data token from word-like values.
///
/// ```
/// use revet_machine::tdata;
/// let t = tdata([1u32, 2]);
/// assert!(t.is_data());
/// ```
pub fn tdata<I, W>(vals: I) -> TTok
where
    I: IntoIterator<Item = W>,
    W: Into<Word>,
{
    Tok::Data(vals.into_iter().map(Into::into).collect())
}

/// Builds a barrier token Ωn.
///
/// # Panics
///
/// Panics unless `1 <= n <= 15`.
pub fn tbar(n: u8) -> TTok {
    Tok::Barrier(BarrierLevel::of(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(tdata([3u32]).data().unwrap(), &vec![Word(3)]);
        assert_eq!(tbar(2).barrier_level().unwrap().get(), 2);
    }
}
