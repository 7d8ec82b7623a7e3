(** The eleven kernels of Table 4, in the paper's listing order.  Each
    generates its inputs once per process ({!Workload.share_inputs}). *)

val all : Workload.t list
val by_name : string -> Workload.t option
val names : string list
