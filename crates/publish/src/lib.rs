//! # pos-publish
//!
//! The publication phase of the pos workflow (§4.4): *"The publication
//! script bundles these artifacts into a release format, e.g., an archive
//! or a repository. In addition, it generates a website and inserts all
//! the collected artifacts documenting the experimental structure in a
//! format that can be easily read by researchers."*
//!
//! * [`bundle`] — collects an experiment's result tree plus generated
//!   figures into a release bundle with a machine-readable manifest in
//!   which every artifact carries its SHA-256 ([`pos_core::hash`]):
//!   integrity is part of publishability.
//! * [`archive`] — writes the bundle as a POSIX ustar tar archive.
//! * [`website`] — generates `index.html` and `README.md` listing all
//!   artifacts, the equivalent of the paper's GitHub-pages site.

#![warn(missing_docs)]

pub mod archive;
pub mod bundle;
pub mod website;

pub use archive::{write_tar, TarEntry};
pub use bundle::{Bundle, BundleError, Manifest, ManifestEntry};
