//! Digital core test wrapper design.
//!
//! Implements the `Design_wrapper` algorithm of Iyengar, Chakrabarty and
//! Marinissen ("Co-optimization of test wrapper and test access architecture
//! for embedded cores", JETTA 2002, reference \[13\] of the reproduced paper):
//! given a core and a TAM width `w`, the core's internal scan chains and
//! functional terminals are partitioned into `w` wrapper scan chains so that
//! the longest scan-in/scan-out path is minimized. The resulting test time
//!
//! ```text
//! t(w) = (1 + max(si, so)) · p + min(si, so)
//! ```
//!
//! (with `p` test patterns) decreases in a *staircase* as `w` grows, which is
//! the property the TAM scheduler exploits.
//!
//! # Examples
//!
//! ```
//! use msoc_itc02::Module;
//! use msoc_wrapper::{WrapperDesign, Staircase};
//!
//! let core = Module::new_scan_core(1, 10, 10, 0, vec![40, 40, 20], 50);
//! let design = WrapperDesign::design(&core, 2);
//! assert!(design.scan_in_length() >= 55); // ceil((100+10)/2)
//!
//! let stairs = Staircase::for_module(&core, 16);
//! assert!(stairs.time_at(16) <= stairs.time_at(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod design;
mod staircase;

pub use design::WrapperDesign;
pub use staircase::{Staircase, StaircasePoint, StaircaseScan};
