let all : Workload.t list =
  List.map Workload.share_inputs
    [ Graphics.deferred;
      Graphics.ssao;
      Graphics.elevated;
      Graphics.pathtracer;
      Rodinia.cfd;
      Rodinia.dwt2d;
      Rodinia.hotspot;
      Rodinia.hotspot3d;
      Leukocyte.imgvf;
      Leukocyte.gicov;
      Hybridsort.hybridsort ]

let by_name name =
  List.find_opt
    (fun (w : Workload.t) ->
       String.lowercase_ascii w.name = String.lowercase_ascii name)
    all

let names = List.map (fun (w : Workload.t) -> w.name) all
