//! Quantized deep-neural-network substrate for the OPTIMA application analysis.
//!
//! Section VI of the paper evaluates the selected in-SRAM multiplier
//! configurations inside INT4-quantized DNNs (VGG16/19, ResNet50/101 on
//! ImageNet and CIFAR-10).  Pre-trained Keras models and the full datasets
//! are not reproducible inside this workspace, so this crate builds the
//! complete pipeline from scratch at a reduced scale (see DESIGN.md):
//!
//! * [`tensor`] — a small NCHW tensor type,
//! * [`im2col`] — the patch-matrix lowering that turns convolutions into
//!   dense GEMMs over [`optima_math::gemm`],
//! * [`layers`] — convolution, dense, pooling, activation and residual layers
//!   with forward and backward passes,
//! * [`network`] — sequential networks, training state and SGD,
//! * [`training`] — cross-entropy loss and a simple trainer,
//! * [`data`] — procedurally generated image-classification datasets
//!   (a many-class "synthetic ImageNet" and a 10-class "synthetic CIFAR"),
//! * [`models`] — scaled-down VGG-style and ResNet-style architectures,
//! * [`quantization`] — post-training quantization at any operand width
//!   (INT4 by default),
//! * [`multiplier`] — pluggable product providers: exact baselines, the
//!   in-SRAM multiplier tables produced by `optima-imc`, and digital
//!   shift-add composition of wide products from narrow tables,
//! * [`quantized`] — the quantized inference engine that consumes them,
//! * [`eval`] — top-1/top-5 accuracy through one dataset evaluator
//!   (per-image fan-out over `optima_core::sweep`),
//! * [`transfer`] — transfer learning (classifier-head replacement) used for
//!   the CIFAR-10 experiment.
//!
//! The headline comparison of the paper — FLOAT32 vs. INT4 vs. the *fom*,
//! *power* and *variation* in-memory multiplier corners — is reproduced by
//! the `table2_imagenet` and `table3_cifar` harnesses in `optima-bench`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod data;
pub mod error;
pub mod eval;
pub mod im2col;
pub mod layers;
pub mod models;
pub mod multiplier;
pub mod network;
pub mod quantization;
pub mod quantized;
pub mod scratch;
pub mod tensor;
pub mod training;
pub mod transfer;

pub use error::DnnError;
pub use tensor::Tensor;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::data::{Dataset, SyntheticImageConfig};
    pub use crate::error::DnnError;
    pub use crate::eval::{evaluate_batched, BatchInferenceModel, EvaluationReport};
    pub use crate::layers::Layer;
    pub use crate::models::{resnet_style, vgg_style, ModelKind};
    pub use crate::multiplier::{
        ComposedProducts, ExactInt4Products, ExactProducts, InMemoryProducts, ProductTable,
    };
    pub use crate::network::Network;
    pub use crate::quantization::QuantizationParams;
    pub use crate::quantized::QuantizedNetwork;
    pub use crate::scratch::KernelScratch;
    pub use crate::tensor::Tensor;
    pub use crate::training::{Trainer, TrainingConfig};
    pub use crate::transfer::transfer_to_new_head;
}
